#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/error.hpp"

namespace rcs {

Cli::Cli(std::string program_description)
    : description_(std::move(program_description)) {}

void Cli::add_int(const std::string& name, std::int64_t def,
                  const std::string& help) {
  flags_[name] = Flag{Kind::Int, std::to_string(def), std::to_string(def), help};
}

void Cli::add_double(const std::string& name, double def,
                     const std::string& help) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", def);
  flags_[name] = Flag{Kind::Double, buf, buf, help};
}

void Cli::add_string(const std::string& name, std::string def,
                     const std::string& help) {
  flags_[name] = Flag{Kind::String, def, def, help};
}

void Cli::add_bool(const std::string& name, bool def, const std::string& help) {
  const char* v = def ? "true" : "false";
  flags_[name] = Flag{Kind::Bool, v, v, help};
}

void Cli::set(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  RCS_CHECK_MSG(it != flags_.end(), "unknown flag --" << name);
  it->second.value = value;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    RCS_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    if (arg == "help") {
      print_help();
      return false;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = flags_.find(arg);
    RCS_CHECK_MSG(it != flags_.end(), "unknown flag --" << arg);
    if (it->second.kind == Kind::Bool) {
      // A bare boolean flag means true; an explicit value may follow.
      if (i + 1 < argc && (std::string(argv[i + 1]) == "true" ||
                           std::string(argv[i + 1]) == "false")) {
        it->second.value = argv[++i];
      } else {
        it->second.value = "true";
      }
    } else {
      RCS_CHECK_MSG(i + 1 < argc, "flag --" << arg << " requires a value");
      it->second.value = argv[++i];
    }
  }
  return true;
}

const Cli::Flag& Cli::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  RCS_CHECK_MSG(it != flags_.end(), "flag --" << name << " was never registered");
  RCS_CHECK_MSG(it->second.kind == kind, "flag --" << name << " type mismatch");
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const Flag& f = find(name, Kind::Int);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(f.value.c_str(), &end, 10);
  RCS_CHECK_MSG(!f.value.empty() && *end == '\0' && errno != ERANGE,
                "flag --" << name << ": bad integer '" << f.value << "'");
  return v;
}

double Cli::get_double(const std::string& name) const {
  const Flag& f = find(name, Kind::Double);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(f.value.c_str(), &end);
  RCS_CHECK_MSG(!f.value.empty() && *end == '\0' && errno != ERANGE,
                "flag --" << name << ": bad number '" << f.value << "'");
  return v;
}

const std::string& Cli::get_string(const std::string& name) const {
  return find(name, Kind::String).value;
}

bool Cli::get_bool(const std::string& name) const {
  const Flag& f = find(name, Kind::Bool);
  if (f.value == "true") return true;
  if (f.value == "false") return false;
  RCS_CHECK_MSG(false, "flag --" << name << ": bad bool '" << f.value << "'");
  return false;
}

void Cli::print_help() const {
  if (!description_.empty()) std::printf("%s\n\n", description_.c_str());
  std::printf("Flags:\n");
  for (const auto& [name, f] : flags_) {
    std::printf("  --%-20s %s (default: %s)\n", name.c_str(), f.help.c_str(),
                f.def.c_str());
  }
}

int run_main(const char* program, int (*body)(int, char**), int argc,
             char** argv) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    // The user-facing reason follows the source location and the failed
    // expression, after the separator RCS_CHECK_MSG puts in front of it.
    constexpr std::string_view kSep = " — ";
    const std::string what = e.what();
    const std::size_t at = what.find(kSep);
    std::cerr << program << ": "
              << (at == std::string::npos ? what : what.substr(at + kSep.size()))
              << '\n';
    return 2;
  }
}

}  // namespace rcs
