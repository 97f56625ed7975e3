#include "exp/cli.h"

#include <cstdio>
#include <cstdlib>

#include "io/format.h"
#include "io/json.h"

namespace skyferry::exp {

Cli::Cli(std::string bench) : bench_(std::move(bench)) {}

Cli& Cli::add(std::string name, Type type, void* target, std::string help) {
  if (name.rfind("--", 0) != 0) throw CliError("flag '" + name + "' must start with --");
  for (const auto& f : flags_)
    if (f.name == name) throw CliError("duplicate flag '" + name + "'");
  flags_.push_back({std::move(name), type, target, std::move(help)});
  return *this;
}

Cli& Cli::flag(std::string name, int* target, std::string help) {
  return add(std::move(name), Type::kInt, target, std::move(help));
}
Cli& Cli::flag(std::string name, std::uint64_t* target, std::string help) {
  return add(std::move(name), Type::kUint64, target, std::move(help));
}
Cli& Cli::flag(std::string name, double* target, std::string help) {
  return add(std::move(name), Type::kDouble, target, std::move(help));
}
Cli& Cli::flag(std::string name, std::string* target, std::string help) {
  return add(std::move(name), Type::kString, target, std::move(help));
}
Cli& Cli::flag(std::string name, bool* target, std::string help) {
  return add(std::move(name), Type::kBool, target, std::move(help));
}

void Cli::assign(const Flag& f, std::string_view value) const {
  const auto bad = [&](const char* expects) {
    return CliError(bench_ + ": flag " + f.name + " expects " + expects + ", got '" +
                    std::string(value) + "'");
  };
  switch (f.type) {
    case Type::kInt: {
      int x = 0;
      if (!io::parse_number(value, &x)) throw bad("an integer in int range");
      *static_cast<int*>(f.target) = x;
      return;
    }
    case Type::kUint64: {
      std::uint64_t x = 0;
      if (!io::parse_number(value, &x)) throw bad("a non-negative 64-bit integer");
      *static_cast<std::uint64_t*>(f.target) = x;
      return;
    }
    case Type::kDouble: {
      double x = 0.0;
      if (!io::parse_number(value, &x)) throw bad("a finite number");
      *static_cast<double*>(f.target) = x;
      return;
    }
    case Type::kString:
      *static_cast<std::string*>(f.target) = std::string(value);
      return;
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(f.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(f.target) = false;
      } else {
        throw bad("true/false/1/0");
      }
      return;
    }
  }
}

void Cli::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      std::exit(0);
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = eq == std::string_view::npos ? arg : arg.substr(0, eq);
    const Flag* match = nullptr;
    for (const auto& f : flags_)
      if (f.name == name) {
        match = &f;
        break;
      }
    if (match == nullptr)
      throw CliError(bench_ + ": unknown flag '" + std::string(name) + "' (see --help)");
    if (eq != std::string_view::npos) {
      assign(*match, arg.substr(eq + 1));
    } else if (match->type == Type::kBool) {
      // Bare `--flag` form: switch on, next token stays an argument.
      *static_cast<bool*>(match->target) = true;
    } else {
      if (i + 1 >= argc)
        throw CliError(bench_ + ": flag " + match->name + " needs a value");
      assign(*match, argv[++i]);
    }
  }
}

void Cli::parse_or_exit(int argc, char** argv) const {
  try {
    parse(argc, argv);
  } catch (const CliError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), usage().c_str());
    std::exit(2);
  }
}

std::string Cli::value_string(const Flag& f) const {
  switch (f.type) {
    case Type::kInt:
      return std::to_string(*static_cast<const int*>(f.target));
    case Type::kUint64:
      return std::to_string(*static_cast<const std::uint64_t*>(f.target));
    case Type::kDouble:
      return io::format_number(*static_cast<const double*>(f.target));
    case Type::kString:
      return *static_cast<const std::string*>(f.target);
    case Type::kBool:
      return *static_cast<const bool*>(f.target) ? "true" : "false";
  }
  return {};
}

std::string Cli::replay_command() const {
  std::string replay = bench_;
  for (const auto& f : flags_) {
    const std::string v = value_string(f);
    if (f.type == Type::kBool) {
      replay += " " + f.name + "=" + v;  // `=` form: bare --flag takes no value
    } else {
      replay += " " + f.name + " " + (v.empty() ? "''" : v);
    }
  }
  return replay;
}

std::vector<std::pair<std::string, std::string>> Cli::flag_values() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(flags_.size());
  for (const auto& f : flags_) out.emplace_back(f.name.substr(2), value_string(f));
  return out;
}

void Cli::print_replay_header() const {
  std::string line = "# " + bench_;
  for (const auto& [name, v] : flag_values()) line += "  " + name + "=" + v;
  std::printf("%s  (replay: %s)\n", line.c_str(), replay_command().c_str());
}

std::string Cli::usage() const {
  std::string u = "usage: " + bench_;
  for (const auto& f : flags_)
    u += f.type == Type::kBool ? " [" + f.name + "[=true|false]]" : " [" + f.name + " <v>]";
  u += "\n";
  for (const auto& f : flags_) {
    u += "  " + f.name + "  " + f.help + " (default " + value_string(f) + ")\n";
  }
  return u;
}

}  // namespace skyferry::exp
