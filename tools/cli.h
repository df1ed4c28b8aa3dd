#ifndef TANE_TOOLS_CLI_H_
#define TANE_TOOLS_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/fd.h"
#include "relation/schema.h"
#include "util/status.h"

namespace tane {
namespace obs {
class Tracer;
}  // namespace obs

namespace cli {

/// Entry point of the `tane` command-line tool, factored out of main() so
/// the whole surface is unit-testable. `args` excludes the program name.
/// Returns the process exit code; normal output goes to `out`, diagnostics
/// to `err`.
///
/// Commands:
///   discover <file.csv>    mine minimal (approximate) dependencies
///   keys <file.csv>        mine minimal (approximate) keys
///   check <file.csv>       measure one dependency (g1/g2/g3, violations)
///   violations <file.csv>  list the exceptional rows of one dependency
///   normalize <file.csv>   minimal cover, candidate keys, BCNF proposal
///   generate <dataset>     write a synthetic paper dataset as CSV
///   help                   print usage
///
/// Exit codes are stable and distinct per failure class: 0 success
/// (including deadline-expired partial results, which print a warning to
/// `err`), 2 invalid argument, 3 not found, 4 out of range, 5 I/O error,
/// 6 failed precondition, 7 resource exhausted, 8 unimplemented,
/// 9 internal error, 10 interrupted but resumable. Exit 10 is the
/// retry-me code: it covers an early-stopped discover run whose checkpoint
/// landed on disk (rerun with --resume to continue) and a corrupt snapshot
/// under --resume (clear the directory and rerun from scratch); schedulers
/// should retry it, in contrast to 6 which marks a real mismatch between
/// the snapshot and the dataset/configuration. Diagnostics always go to
/// `err`, never `out`.
int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

/// Maps a Status to the CLI's documented process exit code.
int ExitCodeForStatus(const Status& status);

/// Writes `discover`'s artifacts from `tracer`'s buffered events: the
/// Chrome trace to `trace_path` (--trace) and the folded stacks to
/// `profile_path` (--profile-out); a null path skips that artifact. Both
/// come from one ring, so when it overflowed a single warning on `err`
/// says they cover only the tail of the run.
Status WriteTraceArtifacts(const obs::Tracer& tracer,
                           const std::string* trace_path,
                           const std::string* profile_path,
                           std::ostream& err);

/// Parses a dependency written with schema names, e.g. "city,zip->state"
/// (left side may be empty: "->state" is the constancy dependency).
StatusOr<FunctionalDependency> ParseFd(const std::string& text,
                                       const Schema& schema);

/// Renders one dependency as JSON (used by --format=json).
std::string FdToJson(const FunctionalDependency& fd, const Schema& schema);

/// Escapes a string for embedding in JSON output.
std::string JsonEscape(const std::string& text);

}  // namespace cli
}  // namespace tane

#endif  // TANE_TOOLS_CLI_H_
