// The long-running front end of the decision service: a line protocol on
// an istream/ostream pair (stdin/stdout in the skyferry_decide binary, a
// stringstream in the tests), so a campaign script can hold one warm
// process open and stream decisions through the batched API instead of
// paying a process spawn per decision.
//
// Protocol (one request or directive per line):
//   <d0> <v> <mdata> <rho> [min_d]   decide; answered immediately unless
//                                    inside a begin/end batch
//   begin                            start accumulating a batch
//   end                              flush the batch through ONE
//                                    decide(span, span) call, answer in
//                                    arrival order
//   stats                            "stats table=<n> exact=<n>"
//   quit                             stop serving (EOF also stops)
//   # ... / blank                    ignored
// Field grammar: fields are separated by C-locale whitespace (space, \t,
// \v, \f, \r). Each field is one token that std::from_chars must read
// whole, in range, to a finite double; a single leading '+' is allowed.
// So "1e-4x", "1.2.3", "1e-400" (underflows), "1e400", "inf" and "nan"
// are all rejected, never read as a prefix or rounded to 0 or ±∞.
// Responses:
//   ok <d_opt> <utility> <cdelay> <discount> <boundary> <backend>
//   err <message>, where <message> is one of
//     expected: <d0> <v> <mdata> <rho> [min_d]   fewer than four fields
//     bad number '<token>'; expected: ...       a field outside the grammar
//     trailing garbage '<token>'                a sixth field
//     invalid-query <reason>                    Query::validate() failed:
//       d0-negative | speed-not-positive | mdata-negative | rho-negative |
//       min-d-negative
//     no open batch | already batching | eof inside open batch (...)
// Numbers are emitted with io::append_json_number, so every served double
// round-trips exactly (a campaign log can be replayed bit-identically).
// A batch's answers leave in one write, from a buffer reused across
// batches.
#pragma once

#include <iosfwd>
#include <string>

#include "policy/service.h"

namespace skyferry::policy {

struct ServerOptions {
  /// Template for every parsed request: the server fills d0/v/mdata/rho
  /// (and optionally min_d) from the line and leaves the rest — so the
  /// operator can pin law, objective, or optimizer schedule per process.
  Query defaults{};
  /// Echo a "# skyferry_decide ..." banner before serving.
  bool banner{true};
};

class LineServer {
 public:
  LineServer(const DecisionService& service, ServerOptions options = {}) noexcept
      : service_(service), opt_(options) {}

  /// Serve until `quit` or EOF. Returns the number of decisions served.
  std::size_t run(std::istream& in, std::ostream& out) const;

 private:
  const DecisionService& service_;
  ServerOptions opt_;
};

/// One response line (without the trailing newline) for a decision, as
/// LineServer writes it — exposed for callers that log answers and for
/// the tests.
[[nodiscard]] std::string format_decision(const Decision& d);

}  // namespace skyferry::policy
