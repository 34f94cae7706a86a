#pragma once
// Sending dense matrix blocks over MiniMPI — the data plane of the hybrid
// designs (column/row stripes of C and D, opMM partial results, D_tt /
// D_qt blocks).
//
// Wire format: two uint64 dimensions followed by row-major doubles. Strided
// views are packed densely on send. A packed block is an immutable Payload:
// a fan-out packs once and sends the same payload to every destination, and
// receivers that only read hold a MatrixMsg — a view into the shared
// buffer — instead of decoding into an owned Matrix.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/span2d.hpp"
#include "linalg/matrix.hpp"
#include "net/minimpi.hpp"

namespace rcs::net {

/// Bytes of the dimension header that precedes a matrix's doubles.
inline constexpr std::size_t kMatrixHeaderBytes = 2 * sizeof(std::uint64_t);

/// Number of payload bytes a rows x cols matrix occupies on the wire.
inline std::uint64_t matrix_wire_bytes(std::uint64_t rows, std::uint64_t cols) {
  return kMatrixHeaderBytes + rows * cols * sizeof(double);
}

/// Pack `m` (possibly a strided view) into an immutable payload: a
/// snapshot, so later writes to `m` never reach what was sent.
inline Payload pack_matrix(Span2D<const double> m) {
  const std::uint64_t rows = m.rows();
  const std::uint64_t cols = m.cols();
  const std::size_t bytes = matrix_wire_bytes(rows, cols);
  note_bytes_copied(bytes);
  return Payload::build(bytes, [&](std::byte* out) {
    std::memcpy(out, &rows, sizeof(rows));
    std::memcpy(out + sizeof(rows), &cols, sizeof(cols));
    out += kMatrixHeaderBytes;
    for (std::uint64_t r = 0; r < rows; ++r) {
      std::memcpy(out, m.row(r), cols * sizeof(double));
      out += cols * sizeof(double);
    }
  });
}

/// A received matrix, read in place: the shared payload plus its
/// dimensions. Holding a MatrixMsg keeps the sender's buffer alive; it is
/// freed when the last holder drops it.
class MatrixMsg {
 public:
  MatrixMsg() = default;

  /// Parse the framing of a matrix payload. The check is overflow-safe: the
  /// element count rows * cols is formed only once it cannot wrap, and it
  /// must account for every byte after the header. Throws rcs::Error on a
  /// truncated header or any size mismatch.
  explicit MatrixMsg(Payload payload) : payload_(std::move(payload)) {
    RCS_CHECK_MSG(payload_.size() >= kMatrixHeaderBytes,
                  "matrix message too short (" << payload_.size()
                                               << " bytes)");
    std::uint64_t rows = 0, cols = 0;
    std::memcpy(&rows, payload_.data(), sizeof(rows));
    std::memcpy(&cols, payload_.data() + sizeof(rows), sizeof(cols));
    const std::uint64_t body = payload_.size() - kMatrixHeaderBytes;
    const std::uint64_t max_elems = body / sizeof(double);
    RCS_CHECK_MSG(rows == 0 || cols <= max_elems / rows,
                  "matrix message header " << rows << "x" << cols
                                           << " exceeds its " << body
                                           << "-byte body");
    RCS_CHECK_MSG(rows * cols * sizeof(double) == body,
                  "matrix message size mismatch: header " << rows << "x"
                                                          << cols << ", body "
                                                          << body << " bytes");
    rows_ = static_cast<std::size_t>(rows);
    cols_ = static_cast<std::size_t>(cols);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Read-only view of the whole matrix (valid while this MatrixMsg, or any
  /// other holder of its payload, lives).
  Span2D<const double> view() const {
    const double* d =
        payload_.empty()
            ? nullptr
            : reinterpret_cast<const double*>(payload_.data() +
                                              kMatrixHeaderBytes);
    return {d, rows_, cols_, cols_};
  }

  /// Read-only view of the block [r0, r0+nr) x [c0, c0+nc).
  Span2D<const double> block(std::size_t r0, std::size_t c0, std::size_t nr,
                             std::size_t nc) const {
    return view().block(r0, c0, nr, nc);
  }

  const Payload& payload() const { return payload_; }

 private:
  Payload payload_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Decode a matrix from a received message into an owned Matrix (one copy;
/// receivers that only read should hold a MatrixMsg instead).
inline linalg::Matrix decode_matrix(const Message& msg) {
  const MatrixMsg m(msg.payload);
  note_bytes_copied(m.rows() * m.cols() * sizeof(double));
  return linalg::Matrix::from_view(m.view());
}

/// Send the contents of `m` (possibly a strided view) to `dst`, charging
/// the sending CPU for the serialization (§4.3). A fan-out of one block
/// should pack_matrix once and send_payload the result to each peer.
inline void send_matrix(Comm& comm, int dst, int tag,
                        Span2D<const double> m) {
  comm.send_payload(dst, tag, pack_matrix(m));
}

/// DMA-style matrix send: the transfer rides the sender's NIC timeline and
/// the CPU pays only setup latency (see Comm::isend_payload).
inline void isend_matrix(Comm& comm, int dst, int tag,
                         Span2D<const double> m) {
  comm.isend_payload(dst, tag, pack_matrix(m));
}

/// Blocking receive of a matrix from `src` with `tag`, decoded into an
/// owned Matrix. `overlap_phase` labels the transfer for
/// Comm::overlap_stats (see minimpi.hpp).
inline linalg::Matrix recv_matrix(Comm& comm, int src, int tag,
                                  const char* overlap_phase = nullptr) {
  return decode_matrix(comm.recv(src, tag, overlap_phase));
}

/// Blocking receive of a matrix, read in place (no copy).
inline MatrixMsg recv_matrix_view(Comm& comm, int src, int tag,
                                  const char* overlap_phase = nullptr) {
  return MatrixMsg(comm.recv(src, tag, overlap_phase).payload);
}

/// Complete a posted receive (Comm::irecv) of a matrix, read in place — the
/// lookahead pipelines post the next block's receive before computing on
/// the current one.
inline MatrixMsg wait_matrix_view(Request& req) {
  return MatrixMsg(req.wait().payload);
}

/// Deadline-bounded blocking matrix receive, read in place: the matrix when
/// it arrives in time, otherwise sets *timed_out and returns an empty
/// MatrixMsg (the late message, if any, is drained — see
/// Comm::recv_deadline).
inline MatrixMsg recv_matrix_view_deadline(
    Comm& comm, int src, int tag, sim::SimTime timeout_s, bool* timed_out,
    const char* overlap_phase = nullptr) {
  Message msg =
      comm.recv_deadline(src, tag, timeout_s, timed_out, overlap_phase);
  if (timed_out != nullptr && *timed_out) return {};
  return MatrixMsg(std::move(msg.payload));
}

/// Deadline-bounded completion of a posted matrix receive (see
/// Request::wait_deadline). Returns an empty MatrixMsg on timeout.
inline MatrixMsg wait_matrix_view_deadline(Request& req,
                                           sim::SimTime timeout_s,
                                           bool* timed_out) {
  Message msg = req.wait_deadline(timeout_s, timed_out);
  if (timed_out != nullptr && *timed_out) return {};
  return MatrixMsg(std::move(msg.payload));
}

}  // namespace rcs::net
