#include "calibrate.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "bench.h"
#include "common/rng.h"

namespace e2ebench {

namespace {

// A receiver merges its own row and those of kFanIn fixed senders.
constexpr uint32_t kFanIn = 2;
// Column visits per pass (receivers x cursors x columns x steps).
constexpr double kVisitsPerPass = 1.25e6;

struct Row {
  std::vector<uint32_t> cols;
  std::vector<double> y;
  std::vector<double> g;
};

struct Cursor {
  const Row* src;
  size_t pos;
  double scale;
  bool is_self;
};

}  // namespace

struct CalibrationKernel {
  KernelKind kind;
  uint32_t n = 0;
  uint32_t steps = 1;  // push-sum steps per pass
  std::vector<Row> initial;  // kFreshRows: every pass starts from these
  std::vector<Row> state;
  std::vector<Row> next;
  std::vector<std::vector<uint32_t>> inbox;  // senders, ascending, self too
  uint64_t written_per_pass = 0;  // entries one pass writes; the check

  CalibrationKernel(KernelKind k, uint32_t nodes) : kind(k), n(nodes) {
    dgt::Rng rng(0xca1b + n);
    initial.resize(n);
    next.resize(n);
    inbox.resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      // Rows start at half density; the merges fill them in.
      for (uint32_t j = 0; j < n; ++j) {
        if (rng.NextBelow(2) == 0) continue;
        initial[i].cols.push_back(j);
        initial[i].y.push_back(rng.NextDouble());
        initial[i].g.push_back(1.0 + rng.NextDouble());
      }
      // Senders i + 1 and i + n / 3 + 1: the rows a row has merged grow
      // with the square of the steps, so every row soon holds all n
      // columns.
      inbox[i].push_back(i);
      inbox[i].push_back((i + 1) % n);
      inbox[i].push_back((i + n / 3 + 1) % n);
      std::sort(inbox[i].begin(), inbox[i].end());
      inbox[i].erase(std::unique(inbox[i].begin(), inbox[i].end()),
                     inbox[i].end());
    }
    const double per_step = static_cast<double>(n) * (kFanIn + 1) * n;
    steps = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(kVisitsPerPass / per_step)));
    if (kind == KernelKind::kFreshRows) {
      written_per_pass = Pass();
      return;
    }
    // kRoundState: once every row holds all n columns, each pass writes
    // the same number of entries.
    state = initial;
    initial.clear();
    const uint64_t full = uint64_t{steps} * n * n;
    for (int warm = 0; warm < 64 && written_per_pass != full; ++warm) {
      written_per_pass = Pass();
    }
  }

  // Runs `steps` push-sum steps on the rows; returns the number of
  // entries written (0 if a change sum came out non-finite).
  uint64_t Pass() {
    if (kind == KernelKind::kFreshRows) state = initial;
    std::vector<Cursor> cursors;
    uint64_t written = 0;
    double l1_sum = 0.0;
    for (uint32_t step = 0; step < steps; ++step) {
      for (uint32_t i = 0; i < n; ++i) {
        cursors.clear();
        const double scale = 1.0 / static_cast<double>(inbox[i].size());
        for (uint32_t sender : inbox[i]) {
          cursors.push_back({&state[sender], 0, scale, sender == i});
        }
        Row& merged = next[i];
        for (;;) {
          uint32_t jmin = UINT32_MAX;
          for (const Cursor& c : cursors) {
            if (c.pos < c.src->cols.size()) {
              jmin = std::min(jmin, c.src->cols[c.pos]);
            }
          }
          if (jmin == UINT32_MAX) break;
          double ay = 0.0, ag = 0.0, old_y = 0.0, old_g = 0.0;
          for (Cursor& c : cursors) {
            if (c.pos < c.src->cols.size() && c.src->cols[c.pos] == jmin) {
              ay += c.src->y[c.pos] * c.scale;
              ag += c.src->g[c.pos] * c.scale;
              if (c.is_self) {
                old_y = c.src->y[c.pos];
                old_g = c.src->g[c.pos];
              }
              ++c.pos;
            }
          }
          const double r = ag != 0.0 ? ay / ag : -1.0;
          const double prev = old_g != 0.0 ? old_y / old_g : -1.0;
          l1_sum += std::fabs(r - prev);
          merged.cols.push_back(jmin);
          merged.y.push_back(ay);
          merged.g.push_back(ag);
        }
        written += merged.cols.size();
      }
      // The merged rows become the state; the old rows are freed and the
      // next step grows new ones.
      std::swap(state, next);
      for (Row& row : next) row = Row();
    }
    return std::isfinite(l1_sum) ? written : 0;
  }
};

namespace {

// One request to the helper: prepare the kernel of `kind` over n nodes
// (min_s < 0) or run passes of it on `cpu` for at least min_s.
struct Request {
  KernelKind kind;
  uint32_t n;
  int32_t cpu;
  double min_s;
};

struct Reply {
  double mean_s;  // mean pass time; negative on failure
};

bool ReadAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t got = read(fd, p, len);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    len -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t put = write(fd, p, len);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    len -= static_cast<size_t>(put);
  }
  return true;
}

// The helper's loop: serves requests until the driver closes its pipe.
[[noreturn]] void HelperMain(int in, int out) {
  std::map<std::pair<KernelKind, uint32_t>, std::unique_ptr<CalibrationKernel>>
      kernels;
  Request req;
  while (ReadAll(in, &req, sizeof(req))) {
    std::unique_ptr<CalibrationKernel>& kernel = kernels[{req.kind, req.n}];
    if (kernel == nullptr) {
      kernel = std::make_unique<CalibrationKernel>(req.kind, req.n);
    }
    Reply reply{0.0};
    if (req.min_s >= 0.0) {
      if (req.cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(req.cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const int64_t start = NowNs();
      size_t count = 0;
      bool same = true;  // every pass wrote what the first one did
      do {
        same = kernel->Pass() == kernel->written_per_pass;
        ++count;
      } while (same && SecondsSince(start) < req.min_s);
      reply.mean_s =
          same ? SecondsSince(start) / static_cast<double>(count) : -1.0;
    }
    if (!WriteAll(out, &reply, sizeof(reply))) break;
  }
  _exit(0);
}

struct Helper {
  pid_t pid = -1;
  int to = -1;    // requests
  int from = -1;  // replies
};
Helper helper;

double Ask(KernelKind kind, uint32_t n, double min_s) {
  const Request req{kind, n, sched_getcpu(), min_s};
  Reply reply{-1.0};
  if (helper.pid < 0 || !WriteAll(helper.to, &req, sizeof(req)) ||
      !ReadAll(helper.from, &reply, sizeof(reply)) || reply.mean_s < 0.0) {
    std::fprintf(stderr, "calibration helper failed\n");
    return std::nan("");
  }
  return reply.mean_s;
}

}  // namespace

bool StartCalibrationHelper() {
  int to[2], from[2];
  if (pipe(to) != 0) return false;
  if (pipe(from) != 0) {
    close(to[0]);
    close(to[1]);
    return false;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(to[1]);
    close(from[0]);
    HelperMain(to[0], from[1]);
  }
  close(to[0]);
  close(from[1]);
  if (pid < 0) {
    close(to[1]);
    close(from[0]);
    return false;
  }
  helper = {pid, to[1], from[0]};
  return true;
}

void StopCalibrationHelper() {
  if (helper.pid < 0) return;
  close(helper.to);  // the helper reads end-of-file and exits
  close(helper.from);
  waitpid(helper.pid, nullptr, 0);
  helper = Helper();
}

ScaledTimer::ScaledTimer(KernelKind kind, uint32_t n) : kind_(kind), n_(n) {
  Ask(kind_, n_, -1.0);
}

double ScaledTimer::Calibrate(double min_s) {
  const double mean_s = Ask(kind_, n_, min_s);
  passes_.push_back(mean_s);
  return mean_s;
}

void ScaledTimer::Begin() {
  if (have_before_) return;
  before_s_ = Calibrate(kCalibrationMinS);
  have_before_ = true;
}

double ScaledTimer::Scaled(double wall_s) {
  const double after_s =
      Calibrate(std::max(kCalibrationMinS, kCalibrationShare * wall_s));
  const double scaled =
      wall_s * kCalibrationReferenceS / (0.5 * (before_s_ + after_s));
  before_s_ = after_s;
  return scaled;
}

}  // namespace e2ebench
