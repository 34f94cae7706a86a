#pragma once
// Owning dense double-precision matrix (row-major) plus norms and comparison
// helpers. The substrate standing in for the host-side BLAS storage that the
// paper's C program keeps in node DRAM.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <vector>

#include "common/error.hpp"
#include "common/span2d.hpp"

namespace rcs::linalg {

/// Allocator whose blocks start on a 64-byte cache line, so a vector load
/// of a Matrix's first row (and of every row when cols is a multiple of 8)
/// never straddles two lines. Each block is one plain allocation, 64 bytes
/// longer than asked, with its start address kept just below the aligned
/// pointer. (Aligned operator new goes through glibc's memalign, which
/// splits every block and strands small free fragments between them: it
/// raised fw-fine's peak RSS by 6%.) Stateless: all instances compare equal.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;
  // The gap below the aligned pointer is a multiple of the default new
  // alignment, at least one of them, so the start address always fits.
  static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(char*));

  CacheAlignedAllocator() = default;
  template <typename U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    char* raw = static_cast<char*>(::operator new(n * sizeof(T) + kAlign));
    char* p = raw + (kAlign - reinterpret_cast<std::uintptr_t>(raw) % kAlign);
    std::memcpy(p - sizeof(char*), &raw, sizeof(char*));
    return reinterpret_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) {
    char* raw = nullptr;
    std::memcpy(&raw, reinterpret_cast<char*>(p) - sizeof(char*),
                sizeof(char*));
    ::operator delete(raw);
  }

  template <typename U>
  bool operator==(const CacheAlignedAllocator<U>&) const {
    return true;
  }
};

/// Row-major dense matrix of doubles. Owns its storage, 64-byte aligned
/// with rows packed (stride == cols); cheap to move.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    RCS_DASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    RCS_DASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Mutable view of the whole matrix.
  Span2D<double> view() { return {data_.data(), rows_, cols_, cols_}; }
  /// Const view of the whole matrix.
  Span2D<const double> view() const {
    return {data_.data(), rows_, cols_, cols_};
  }
  /// Mutable view of the block [r0, r0+nr) x [c0, c0+nc).
  Span2D<double> block(std::size_t r0, std::size_t c0, std::size_t nr,
                       std::size_t nc) {
    return view().block(r0, c0, nr, nc);
  }
  Span2D<const double> block(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const {
    return view().block(r0, c0, nr, nc);
  }

  /// Set all entries to `value`.
  void fill(double value) { data_.assign(data_.size(), value); }

  bool operator==(const Matrix& other) const = default;

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Copy the contents of a (possibly strided) view into a fresh matrix.
  static Matrix from_view(Span2D<const double> v);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, CacheAlignedAllocator<double>> data_;
};

/// Copy src into dst; shapes must match. Views may be strided.
void copy(Span2D<const double> src, Span2D<double> dst);

/// Frobenius norm of a view.
double frobenius_norm(Span2D<const double> a);

/// Max-abs-entry norm of a view.
double max_abs(Span2D<const double> a);

/// Max-abs entry of (a - b); shapes must match.
double max_abs_diff(Span2D<const double> a, Span2D<const double> b);

/// True when every entry of a and b is bitwise identical (incl. -0 vs +0).
bool bit_equal(Span2D<const double> a, Span2D<const double> b);

/// Pretty-print (small matrices only; meant for debugging and examples).
std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace rcs::linalg
