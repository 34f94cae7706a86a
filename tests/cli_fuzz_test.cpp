// Deterministic fuzz test for the command-line parser (common/cli). A seeded
// argv corpus is mutated with SplitMix64 (common/rng). Every parse, and every
// typed get after a parse that succeeded, must return or throw rcs::Error;
// another exception type, a crash or a sanitizer report fails. A number that
// is returned must be one the text spells: an empty or out-of-range value
// must be rejected, not read as 0 or as the type's limit. A case this test
// finds is kept as a Cli test in common_test.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace rcs {
namespace {

using Args = std::vector<std::string>;

// Well-formed command lines over every flag kind and both value forms.
const std::vector<Args> kCorpus = {
    {"--n", "20"},
    {"--rate=2.5", "--mode", "fpga", "--verbose"},
    {"--flag", "false", "--n=-3", "--m", "7"},
    {"--verbose", "true", "--flag", "--rate", "1e-3"},
    {"--n=9223372036854775807", "--m", "-9223372036854775808"},
    {"--rate", "1.7976931348623157e308"},
    {}};

// Tokens spliced in whole: flag names, separators, and numbers at and past
// the edges of what the getters accept.
const std::vector<std::string> kDictionary = {
    "--n", "--m", "--rate", "--mode", "--verbose", "--flag", "--bogus", "--n=",
    "--rate=", "--", "=", "", "true", "false", "0", "-1", "+7", " 5", "5 ",
    "0x10", "9223372036854775808", "-9223372036854775809", "1e309", "-1e309",
    "1e-400", "4.9e-324", "nan", "inf", "1e", "."};

struct Mutator {
  std::uint64_t state;

  std::size_t below(std::size_t n) { return splitmix64(state) % n; }

  void mutate(Args& args) {
    const std::size_t op = below(7);
    if (args.empty() || op == 0) {
      args.insert(args.begin() + below(args.size() + 1),
                  kDictionary[below(kDictionary.size())]);
      return;
    }
    const std::size_t at = below(args.size());
    std::string& arg = args[at];
    const char byte = static_cast<char>(1 + below(255));  // never NUL
    if (op == 1 && !arg.empty()) arg[below(arg.size())] = byte;
    if (op == 2) arg.insert(arg.begin() + below(arg.size() + 1), byte);
    if (op == 3) arg.resize(below(arg.size() + 1));
    if (op == 4) arg = kDictionary[below(kDictionary.size())];
    if (op == 5) {
      const std::string copy = arg;
      args.insert(args.begin() + below(args.size() + 1), copy);
    }
    if (op == 6) args.erase(args.begin() + at);
  }
};

// The text a successful parse stored for flag `name`, walking `args` the way
// Cli::parse does; "<default>" when the flag was not given.
std::string value_text(const Args& args, const std::string& name) {
  std::string text = "<default>";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i].substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (arg.substr(0, eq) == name) text = arg.substr(eq + 1);
    } else if (arg == "verbose" || arg == "flag") {
      if (i + 1 < args.size() &&
          (args[i + 1] == "true" || args[i + 1] == "false")) {
        ++i;
      }
    } else if (arg == name) {
      text = args[++i];
    } else {
      ++i;
    }
  }
  return text;
}

struct Outcomes {
  long parsed = 0, rejected = 0, values = 0, bad_values = 0;
};

// Runs one command line; returns a contract violation, or "".
std::string run_one(const Args& args, Outcomes& out) {
  Cli cli;
  cli.add_int("n", 1, "");
  cli.add_int("m", 2, "");
  cli.add_double("rate", 1.5, "");
  cli.add_string("mode", "hybrid", "");
  cli.add_bool("verbose", false, "");
  cli.add_bool("flag", true, "");
  std::vector<const char*> argv{"prog"};
  for (const auto& a : args) argv.push_back(a.c_str());
  // Runs `get`; a returned value is checked by `check`, which returns a
  // violation or "".
  auto typed = [&](auto get, auto check) -> std::string {
    try {
      const auto v = get();
      ++out.values;
      return check(v);
    } catch (const Error&) {
      ++out.bad_values;
      return {};
    } catch (...) {
      return "a typed get threw something other than rcs::Error";
    }
  };
  try {
    if (!cli.parse(static_cast<int>(argv.size()), argv.data())) return {};
  } catch (const Error&) {
    ++out.rejected;
    return {};
  } catch (...) {
    return "parse threw something other than rcs::Error";
  }
  ++out.parsed;
  std::string bad;
  for (const char* name : {"n", "m"}) {
    const std::string text = value_text(args, name);
    bad += typed([&] { return cli.get_int(name); }, [&](std::int64_t v) {
      constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
      constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
      if (text.empty()) return "--" + std::string(name) + " read '' as 0";
      const bool limit = v == kMax || v == kMin;
      if (limit && text != "<default>" &&
          std::strtold(text.c_str(), nullptr) != static_cast<long double>(v))
        return "--" + std::string(name) + " clamped '" + text + "'";
      return std::string();
    });
  }
  const std::string rate = value_text(args, "rate");
  bad += typed([&] { return cli.get_double("rate"); }, [&](double v) {
    if (rate.empty()) return std::string("--rate read '' as 0");
    std::string lower = rate;
    for (char& c : lower)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (std::isinf(v) && lower.find("inf") == std::string::npos)
      return "--rate overflowed '" + rate + "' to infinity";
    return std::string();
  });
  const auto none = [](const auto&) { return std::string(); };
  bad += typed([&] { return cli.get_string("mode"); }, none);
  bad += typed([&] { return cli.get_bool("verbose"); }, none);
  bad += typed([&] { return cli.get_bool("flag"); }, none);
  return bad;
}

TEST(CliFuzz, EveryInputParsesOrThrowsRcsError) {
  constexpr long kCases = 20000;
  Mutator mut{0x5eedc11ULL};
  Outcomes out;
  for (long i = 0; i < kCases; ++i) {
    Args args = kCorpus[mut.below(kCorpus.size())];
    for (std::size_t r = 1 + mut.below(4); r > 0; --r) mut.mutate(args);
    std::string shown;
    for (const auto& a : args) shown += " '" + a + "'";
    ASSERT_EQ(run_one(args, out), "") << "case " << i << ":" << shown;
  }
  // Both sides of every decision must be reached, or the corpus and the
  // mutations have stopped exploring the parser.
  EXPECT_GT(out.parsed, kCases / 10);
  EXPECT_GT(out.rejected, kCases / 10);
  EXPECT_GT(out.values, kCases / 10);
  EXPECT_GT(out.bad_values, kCases / 100);
}

}  // namespace
}  // namespace rcs
