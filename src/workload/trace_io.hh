/**
 * @file
 * Binary save/load for trace bundles.
 *
 * Workloads are normally synthesized deterministically, but a real
 * release needs record/replay: freeze the exact op streams of a run
 * to disk, share them, and re-run them bit-identically on any build
 * (e.g. to report a bug or compare machine configurations on frozen
 * inputs). The format is a small versioned container:
 *
 *   magic "BSCT"  u32 version  u32 numTraces
 *   per trace: u64 numOps, then numOps packed Op records
 *
 * All fields little-endian.
 */

#ifndef BULKSC_WORKLOAD_TRACE_IO_HH
#define BULKSC_WORKLOAD_TRACE_IO_HH

#include <string>
#include <vector>

#include "cpu/op.hh"

namespace bulksc {

/** Write a trace bundle to @p path. False with @p err naming the
 *  path and the reason on I/O failure. */
bool saveTraces(const std::string &path, const std::vector<Trace> &traces,
                std::string &err);

/**
 * Load a trace bundle written by saveTraces() into @p out. Traces
 * come back finalized. False with @p err naming the path and the
 * reason (cannot open, not a trace bundle, unsupported version, bad
 * trace or op count, truncated) on I/O or format failure.
 */
bool loadTraces(const std::string &path, std::vector<Trace> &out,
                std::string &err);

} // namespace bulksc

#endif // BULKSC_WORKLOAD_TRACE_IO_HH
