#ifndef DSSDDI_BENCH_E2E_HOST_SPEED_H_
#define DSSDDI_BENCH_E2E_HOST_SPEED_H_

// How fast one CPU runs a fixed piece of work right now. On a shared VM the
// speed of a vCPU moves by tens of percent within seconds (neighbours on
// the host compete for the physical core, its caches and its vector
// units), and the servers' CPU cost per answer moves with it. bench_e2e
// times this probe on the servers' CPU between measurement windows, while
// the servers are idle, and reports every end-to-end time at the
// reference speed below.
//
// The probe is the benchmark's own code, not the library's, so no change to
// the program under test changes what it measures. Changing the probe or
// either constant below changes every reported time: it is a benchmark
// change, measured again on the parent.

namespace dssddi::e2e {

/// Probe chunks per CPU-second that define the reference speed: about the
/// median a vCPU of the 4-vCPU Intel Xeon VM the benchmark was built on
/// reached over its validation runs (quiet seconds reach 7500), so that a
/// reported time reads about what that VM shows on a typical second.
inline constexpr double kReferenceProbeRate = 6000.0;

/// How far a window's times are taken to move with the probe's speed:
/// times scale with speed^-kSpeedElasticity, rates with
/// speed^kSpeedElasticity. Fitted over seven sets of 10 runs per workload,
/// taken over six hours in which the host's median speed moved between 0.8
/// and 1.6 of the reference: the drift of a metric's median from one set
/// to the next was at most 43% as measured, 21% at 0.5, 17% at 0.7 and 23%
/// at 1.0, and the spread within a set at most 39%, 25%, 20% and 24%.
/// Set-up time also drifted least at 0.7 (36%, 21%, 16% and 28%).
inline constexpr double kSpeedElasticity = 0.7;

/// Pins the calling thread to `cpu` for about `seconds` of probe work and
/// returns chunks per CPU-second of it (CPU time, so time the vCPU was
/// taken away is not counted), then restores the thread's CPU set. A
/// chunk is shaped like a served request: an int8 dense layer, triangle
/// counts and breadth-first searches over a small sparse graph, and
/// parsing a row of floats from text.
double ProbeRate(int cpu, double seconds);

}  // namespace dssddi::e2e

#endif  // DSSDDI_BENCH_E2E_HOST_SPEED_H_
