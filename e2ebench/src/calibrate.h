// Host-speed calibration. On a shared host the speed of a core changes
// by 1.5x and more from one minute to the next as other guests load the
// machine, and CPU time moves with wall time there (it is not steal time
// that could be left out). So the benchmark runs a fixed reference
// kernel right before and right after each timed call, on the same CPU,
// and reports the call's time scaled to a host on which one pass of the
// kernel takes kCalibrationReferenceS. A change in the library moves the
// scaled figure; a change in the host's speed slows the kernel about as
// much as the call, and mostly cancels out.
//
// The kernel is a frozen copy of the work that dominates the timed
// calls: push-sum steps whose receivers k-way merge sparse rows of
// (column, y, g) into rows grown afresh every step, and sum the change
// of y/g. Host load slows this branchy, allocating, division-heavy work
// more than a plain merge loop or one on reused buffers, so only a kernel
// of the same kind tracks it. It calls nothing in the library, so no
// library change moves it.

#ifndef DGT_E2EBENCH_CALIBRATE_H_
#define DGT_E2EBENCH_CALIBRATE_H_

#include <cstdint>
#include <vector>

namespace e2ebench {

// The pass time that defines the scaled second: a call is reported as
// its wall time times kCalibrationReferenceS / (its kernel pass time).
// About one pass at 250 nodes on an unloaded core of a 4-vCPU VM.
constexpr double kCalibrationReferenceS = 0.010;

// Between two calls the kernel runs for kCalibrationShare of the
// previous call's wall time, and at least kCalibrationMinS, so that it
// samples the host's speed over a good part of the time the call ran.
constexpr double kCalibrationShare = 0.1;
constexpr double kCalibrationMinS = 0.05;

// The kernel runs in a helper process, a fork of the driver, on the CPU
// of the thread that asks for a pass; that thread waits meanwhile. The
// kernel works on as much memory as the call it calibrates, and in its
// own process that memory stays out of the driver's peak RSS.
//
// StartCalibrationHelper forks the helper; call it before the driver
// starts any thread. StopCalibrationHelper ends it and waits for it to
// exit (it also exits when the driver does).
bool StartCalibrationHelper();
void StopCalibrationHelper();

// Two kinds of kernel, each tracking one engine best. Both k-way merge
// the same rows; they differ in where a pass's rows come from.
enum class KernelKind : uint32_t {
  // The rows persist from pass to pass (full after a few), as a
  // synchronous round's state does from step to step.
  kRoundState,
  // Every pass copies fresh half-full rows and merges them, as the
  // event-driven engine merges each message into a freshly built row.
  kFreshRows,
};

// Scales the wall time of consecutive calls on one thread: Begin()
// before a call, Scaled() after it. The kernel's passes after one call
// are the passes before the next. Pin the thread (PinToCurrentCpu) so
// that the calls and the passes share a CPU.
class ScaledTimer {
 public:
  // For calls on a problem of n nodes: the kernel runs over n nodes too,
  // so that its rows take as much of the caches and memory. The helper
  // builds its inputs, untimed.
  ScaledTimer(KernelKind kind, uint32_t n);

  void Begin();
  // wall_s * kCalibrationReferenceS / (mean pass time over the passes
  // before and after the call); NaN if the helper failed.
  double Scaled(double wall_s);
  // The mean pass time of every calibration so far, in seconds.
  const std::vector<double>& passes() const { return passes_; }

 private:
  // Runs passes for at least min_s (one at least); returns their mean.
  double Calibrate(double min_s);

  KernelKind kind_;
  uint32_t n_;
  bool have_before_ = false;
  double before_s_ = 0.0;
  std::vector<double> passes_;
};

}  // namespace e2ebench

#endif  // DGT_E2EBENCH_CALIBRATE_H_
