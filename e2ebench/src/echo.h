// Loopback round-trip calibration for the served-read latency. Like
// calibrate.h for compute, but for what dominates a loopback read:
// socket system calls and thread wake-ups, whose cost on a shared host
// moves by 1.5x with the other guests' load. EchoP50Us runs a frozen
// stand-in for the RPC server's shape — per-connection reader threads
// handing requests through one queue to a pool of worker threads that
// write the replies — with closed-loop clients, over plain sockets. It
// calls nothing in the library, so no library change moves it.

#ifndef DGT_E2EBENCH_ECHO_H_
#define DGT_E2EBENCH_ECHO_H_

#include <cstdint>

namespace e2ebench {

// The echo round trip that defines the scaled microsecond: a latency is
// reported as its wall value times kEchoReferenceUs / (the echo median).
// About the echo median on a 4-vCPU VM.
constexpr double kEchoReferenceUs = 50.0;

// Median round trip, in microseconds, of `conns` closed-loop connections
// served by `workers` worker threads for `seconds`; 0 if a socket could
// not be set up.
double EchoP50Us(uint32_t conns, uint32_t workers, double seconds);

}  // namespace e2ebench

#endif  // DGT_E2EBENCH_ECHO_H_
