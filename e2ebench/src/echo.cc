#include "echo.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.h"

namespace e2ebench {
namespace {

// One request and one reply: a 16-byte frame, about a point query's size.
constexpr size_t kFrame = 16;

bool ReadAll(int fd, char* buf, size_t len) {
  while (len > 0) {
    const ssize_t got = read(fd, buf, len);
    if (got <= 0) return false;
    buf += got;
    len -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteAll(int fd, const char* buf, size_t len) {
  while (len > 0) {
    const ssize_t put = write(fd, buf, len);
    if (put <= 0) return false;
    buf += put;
    len -= static_cast<size_t>(put);
  }
  return true;
}

void NoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Requests handed from the readers to the workers.
class Queue {
 public:
  void Push(int fd) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      fds_.push_back(fd);
    }
    cv_.notify_one();
  }
  // The next request's socket, or -1 once closed and drained.
  int Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !fds_.empty(); });
    if (fds_.empty()) return -1;
    const int fd = fds_.front();
    fds_.pop_front();
    return fd;
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> fds_;
  bool closed_ = false;
};

}  // namespace

double EchoP50Us(uint32_t conns, uint32_t workers, double seconds) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  if (listener < 0 ||
      bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, static_cast<int>(conns)) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    if (listener >= 0) close(listener);
    return 0.0;
  }
  std::vector<int> client_fds, server_fds;
  for (uint32_t c = 0; c < conns; ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
      if (fd >= 0) close(fd);
      break;
    }
    const int accepted = accept(listener, nullptr, nullptr);
    if (accepted < 0) {
      close(fd);
      break;
    }
    NoDelay(fd);
    NoDelay(accepted);
    client_fds.push_back(fd);
    server_fds.push_back(accepted);
  }
  close(listener);
  const bool connected = client_fds.size() == conns;

  Queue queue;
  std::vector<std::vector<double>> rtt_us(client_fds.size());
  {
    // dgt-lint: raw-thread-ok(the echo server's readers and workers)
    std::vector<std::thread> server;
    for (int fd : server_fds) {
      server.emplace_back([fd, &queue] {
        char frame[kFrame];
        while (ReadAll(fd, frame, kFrame)) queue.Push(fd);
      });
    }
    for (uint32_t w = 0; w < workers; ++w) {
      server.emplace_back([&queue] {
        char frame[kFrame] = {};
        for (int fd = queue.Pop(); fd >= 0; fd = queue.Pop()) {
          WriteAll(fd, frame, kFrame);
        }
      });
    }
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(connected ? seconds * 1e9 : 0);
    // dgt-lint: raw-thread-ok(one closed-loop client per connection)
    std::vector<std::thread> clients;
    for (size_t c = 0; c < client_fds.size(); ++c) {
      clients.emplace_back([fd = client_fds[c], deadline, out = &rtt_us[c]] {
        char frame[kFrame] = {};
        while (NowNs() < deadline) {
          const int64_t start = NowNs();
          if (!WriteAll(fd, frame, kFrame) || !ReadAll(fd, frame, kFrame)) {
            return;
          }
          out->push_back(static_cast<double>(NowNs() - start) * 1e-3);
        }
      });
    }
    // dgt-lint: raw-thread-ok(joins the echo clients started above)
    for (std::thread& t : clients) t.join();
    // EOF on every connection ends the readers; then the workers drain.
    for (int fd : client_fds) shutdown(fd, SHUT_WR);
    for (size_t r = 0; r < server_fds.size(); ++r) server[r].join();
    queue.Close();
    for (size_t w = server_fds.size(); w < server.size(); ++w) {
      server[w].join();
    }
  }
  for (int fd : client_fds) close(fd);
  for (int fd : server_fds) close(fd);
  if (!connected) return 0.0;
  std::vector<double> all;
  for (const std::vector<double>& v : rtt_us) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return Median(std::move(all));
}

}  // namespace e2ebench
