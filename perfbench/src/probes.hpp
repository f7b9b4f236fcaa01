// Direct calls into single layers — sage, convert, the exec kernels and a
// STREAM-triad bandwidth probe — made only in the traced run, after the
// served phases, on the workload's own operands.
#pragma once

#include "harness.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace pb {

// Times sage_select_* on every resident operand and convert() on each
// operand's MCF -> chosen-ACF pair. Spans "sage_select" and "convert".
void probe_sage_convert(const Workload& w, double budget_s, SpanLog& log,
                        Report& r);

// Times each served kernel directly on the ACF the server ran it in, at
// the kernel width live under the deployment, and reports GFLOP/s and
// computed GB/s from format, nnz and shape. Spans "exec.<kernel>".
void probe_kernels(const Workload& w, const Deployment& d, double budget_s,
                   SpanLog& log, Report& r);

// STREAM triad a = b + s*c at the same kernel width. Span "triad".
// Returns the bandwidth when it is a DRAM bound (footprint >= 4x LLC),
// else 0.
double probe_triad(double budget_s, SpanLog& log, Report& r);

// The host's last-level cache size in bytes (0 when unknown).
long llc_bytes();

}  // namespace pb
