//===- tools/Cli.h - Pieces shared by the rprism subcommands --------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TOOLS_CLI_H
#define RPRISM_TOOLS_CLI_H

#include "support/Expected.h"

#include <string>
#include <vector>

namespace rprism {

/// Runs `rprism metrics-diff <baseline.json> <current.json> [flags]`.
/// \p Args is everything after the subcommand name. Exit codes follow
/// the rprism contract plus code 5 for a perf regression.
int metricsDiffMain(const std::vector<std::string> &Args);

/// Maps an error's class onto the exit codes usage() prints: 2 usage,
/// 3 corrupt input, 4 I/O, 1 anything else.
int exitCodeFor(const Err &E);

/// Reads a whole program or metrics file. A path that cannot be opened or
/// read to its end, such as a directory or a FIFO that has no writer, is
/// `file.open` (ErrClass::Io); a pipe, or a FIFO with a writer, reads like
/// a file.
Expected<std::string> readFile(const std::string &Path);

} // namespace rprism

#endif // RPRISM_TOOLS_CLI_H
