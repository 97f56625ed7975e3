#include "policy/server.h"

#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <vector>

#include "io/json.h"

namespace skyferry::policy {
namespace {

constexpr std::string_view kUsage = "expected: <d0> <v> <mdata> <rho> [min_d]";

/// The C locale's isspace set, so a line reads the same in any locale.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Parse "<d0> <v> <mdata> <rho> [min_d]" into a query stamped from the
/// template. Returns false with a message on any malformed field.
bool parse_query(std::string_view line, const Query& defaults, Query* out, std::string* err) {
  Query q = defaults;
  double* const fields[] = {&q.d0_m, &q.speed_mps, &q.mdata_bytes, &q.rho_per_m,
                            &q.min_distance_m};
  std::size_t n = 0;
  for (std::size_t i = 0;; ++n) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) break;
    std::size_t j = i;
    while (j < line.size() && !is_space(line[j])) ++j;
    const std::string_view tok = line.substr(i, j - i);
    i = j;
    if (n == std::size(fields)) {
      *err = "trailing garbage '";
      *err += tok;
      *err += '\'';
      return false;
    }
    if (!io::parse_number(tok, fields[n])) {
      *err = "bad number '";
      *err += tok;
      *err += "'; ";
      *err += kUsage;
      return false;
    }
  }
  if (n < 4) {
    *err = kUsage;
    return false;
  }
  if (const QueryError why = q.validate(); why != QueryError::kNone) {
    *err = "invalid-query ";
    *err += to_string(why);
    return false;
  }
  *out = q;
  return true;
}

void append_decision(std::string& out, const Decision& d) {
  out += "ok ";
  io::append_json_number(out, d.d_opt_m);
  out += ' ';
  io::append_json_number(out, d.utility);
  out += ' ';
  io::append_json_number(out, d.cdelay_s);
  out += ' ';
  io::append_json_number(out, d.discount);
  out += ' ';
  out += core::to_string(d.boundary);
  out += ' ';
  out += to_string(d.backend);
}

}  // namespace

std::string format_decision(const Decision& d) {
  std::string out;
  append_decision(out, d);
  return out;
}

std::size_t LineServer::run(std::istream& in, std::ostream& out) const {
  if (opt_.banner) {
    out << "# skyferry_decide ready (table=" << (service_.has_table() ? "yes" : "no")
        << "); line: <d0> <v> <mdata> <rho> [min_d] | begin | end | stats | quit\n";
  }
  std::size_t served = 0;
  bool batching = false;
  std::vector<Query> batch;
  // Reused across batches: once they have grown to the largest batch
  // so far, the answer path allocates nothing.
  std::vector<Decision> answers;
  std::string reply;
  std::string line;
  std::string err;
  const auto send = [&] {
    out.write(reply.data(), static_cast<std::streamsize>(reply.size()));
    out.flush();
    reply.clear();
  };
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit") break;
    if (line == "stats") {
      const DecisionService::Counters c = service_.counters();
      out << "stats table=" << c.table << " exact=" << c.exact << '\n';
      continue;
    }
    if (line == "begin") {
      if (batching) {
        out << "err already batching\n";
        continue;
      }
      batching = true;
      batch.clear();
      continue;
    }
    if (line == "end") {
      if (!batching) {
        out << "err no open batch\n";
        continue;
      }
      answers.resize(batch.size());
      service_.decide(batch, answers);
      for (const Decision& d : answers) {
        append_decision(reply, d);
        reply += '\n';
      }
      send();
      served += answers.size();
      batching = false;
      batch.clear();
      continue;
    }
    Query q;
    if (!parse_query(line, opt_.defaults, &q, &err)) {
      out << "err " << err << '\n';
      continue;
    }
    if (batching) {
      batch.push_back(q);
      continue;
    }
    append_decision(reply, service_.decide_one(q));
    reply += '\n';
    send();
    ++served;
  }
  if (batching) out << "err eof inside open batch (" << batch.size() << " queries dropped)\n";
  return served;
}

}  // namespace skyferry::policy
