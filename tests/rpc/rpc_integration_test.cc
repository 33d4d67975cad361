// Multi-process integration test: one server, a fleet of client processes
// each running several submission threads, plus one deliberately abusive
// client that floods a single connection to draw kResourceExhausted.
//
// The acceptance bar is bit-identical serving: every response a child
// received over the wire must re-encode to exactly the bytes the parent
// gets by calling ShardRouter::SubmitJob in-process with the same request.
//
// Fork discipline (sanitizer-safe): all children are forked while the
// parent is still single-threaded, before the server (reactor + workers)
// exists. Children block on a pipe until the parent has started the server
// and warmed the stores, then get the port.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "jobs/datasets.h"
#include "mrsim/cluster.h"
#include "mrsim/simulator.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/shard_router.h"
#include "rpc/wire.h"
#include "storage/env.h"

namespace pstorm::rpc {
namespace {

constexpr int kClients = 6;
constexpr int kThreadsPerClient = 6;
constexpr int kRequestsPerThread = 8;
constexpr int kTenants = 12;
constexpr int kFloodRequests = 256;

const char* const kJobs[] = {"word-count", "inverted-index"};

// The request matrix: a pure function of (client, thread, request index),
// so the parent can regenerate every child's requests exactly.
SubmitJobRequest MatrixRequest(int client, int thread, int r) {
  const int stream = client * kThreadsPerClient + thread;
  SubmitJobRequest request;
  request.tenant = "team-" + std::to_string((stream + r) % kTenants);
  request.job_name = kJobs[r % 2];
  request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  request.seed = 10'000 + stream * 100 + r;
  return request;
}

bool WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Child process: waits for the port, runs its slice of the matrix on
// kThreadsPerClient concurrent connections, then streams the re-encoded
// response bytes back in deterministic order. Exits 0 only if every
// submission succeeded.
[[noreturn]] void RunWorkerChild(int client, int go_fd, int result_fd) {
  uint16_t port = 0;
  if (!ReadFull(go_fd, &port, sizeof(port))) _exit(2);

  std::vector<std::string> results(kThreadsPerClient * kRequestsPerThread);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreadsPerClient; ++t) {
    threads.emplace_back([&, t] {
      auto client_conn = Client::Connect("127.0.0.1", port);
      if (!client_conn.ok()) {
        failed.store(true);
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const auto response =
            (*client_conn)->SubmitJob(MatrixRequest(client, t, r));
        if (!response.ok()) {
          std::fprintf(stderr, "child %d thread %d req %d: %s\n", client, t,
                       r, response.status().ToString().c_str());
          failed.store(true);
          return;
        }
        results[t * kRequestsPerThread + r] =
            EncodeSubmitJobResponse(*response);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (failed.load()) _exit(3);

  std::string out;
  for (const std::string& bytes : results) {
    const uint32_t len = static_cast<uint32_t>(bytes.size());
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out += bytes;
  }
  if (!WriteFull(result_fd, out.data(), out.size())) _exit(4);
  _exit(0);
}

// Saturating child: pipelines kFloodRequests SubmitJobs down ONE
// connection without reading, then drains everything and reports how many
// were served vs rejected with kResourceExhausted. Per-connection
// admission (max_pending_per_connection) must reject a chunk of the flood
// instead of buffering it.
[[noreturn]] void RunFloodChild(int go_fd, int result_fd) {
  uint16_t port = 0;
  if (!ReadFull(go_fd, &port, sizeof(port))) _exit(2);

  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) _exit(3);

  SubmitJobRequest request;
  request.tenant = "flood-team";
  request.job_name = "word-count";
  request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();

  std::string burst;
  for (int i = 0; i < kFloodRequests; ++i) {
    RequestFrame frame;
    frame.request_id = 1 + i;
    frame.method = Method::kSubmitJob;
    request.seed = 77'000 + i;
    frame.body = EncodeSubmitJobRequest(request);
    burst += EncodeRequestFrame(frame);
  }
  if (!(*client)->SendRaw(burst).ok()) _exit(4);

  uint32_t ok = 0, exhausted = 0;
  for (int i = 0; i < kFloodRequests; ++i) {
    const auto response = (*client)->ReadResponse();
    if (!response.ok()) _exit(5);
    const Status status = ResponseStatus(*response);
    if (status.ok()) {
      ++ok;
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++exhausted;
    } else {
      std::fprintf(stderr, "flood child: unexpected %s\n",
                   status.ToString().c_str());
      _exit(6);
    }
  }
  if (!WriteFull(result_fd, &ok, sizeof(ok)) ||
      !WriteFull(result_fd, &exhausted, sizeof(exhausted))) {
    _exit(7);
  }
  _exit(0);
}

TEST(RpcIntegrationTest, MultiProcessServingIsBitIdenticalToInProcess) {
  struct Child {
    pid_t pid = -1;
    int go_fd = -1;      // Parent writes the port here.
    int result_fd = -1;  // Parent reads results here.
  };
  std::vector<Child> children;

  // --- Fork every child while this process is still single-threaded. ---
  for (int c = 0; c < kClients + 1; ++c) {
    int go[2], result[2];
    ASSERT_EQ(pipe(go), 0);
    ASSERT_EQ(pipe(result), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(go[1]);
      close(result[0]);
      for (const Child& sibling : children) {
        close(sibling.go_fd);
        close(sibling.result_fd);
      }
      if (c < kClients) {
        RunWorkerChild(c, go[0], result[1]);
      } else {
        RunFloodChild(go[0], result[1]);
      }
    }
    close(go[0]);
    close(result[1]);
    children.push_back({pid, go[1], result[0]});
  }

  // --- Now threads are allowed: bring up the server. ---
  const mrsim::Simulator simulator(mrsim::ThesisCluster());
  storage::InMemoryEnv env;
  ShardRouterOptions router_options;
  router_options.num_shards = 3;
  auto router =
      ShardRouter::Create(&simulator, &env, "/integration", router_options);
  ASSERT_TRUE(router.ok()) << router.status();

  ServerOptions server_options;
  // Generous global bound so only the flood connection's per-connection
  // cap trips; the worker fleet's streams must never see backpressure or
  // the bit-identical comparison below would fail on an error response.
  server_options.max_inflight_requests = 256;
  server_options.max_pending_per_connection = 16;
  auto server = Server::Start(router->get(), server_options);
  ASSERT_TRUE(server.ok()) << server.status();

  // --- Warm every (tenant, job) pair serially over the wire, so the
  // concurrent phase below is pure matched serving (store read-only). ---
  {
    auto warmup = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(warmup.ok()) << warmup.status();
    SubmitJobRequest request;
    request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
    request.seed = 1;
    std::vector<std::string> tenants;
    for (int i = 0; i < kTenants; ++i) {
      tenants.push_back("team-" + std::to_string(i));
    }
    tenants.push_back("flood-team");
    for (const std::string& tenant : tenants) {
      for (const char* job : kJobs) {
        request.tenant = tenant;
        request.job_name = job;
        const auto outcome = (*warmup)->SubmitJob(request);
        ASSERT_TRUE(outcome.ok()) << outcome.status();
      }
    }
  }

  // --- Release the fleet. ---
  const uint16_t port = (*server)->port();
  for (const Child& child : children) {
    ASSERT_TRUE(WriteFull(child.go_fd, &port, sizeof(port)));
  }

  // --- Collect every worker child's serialized responses. ---
  std::vector<std::vector<std::string>> actual(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kThreadsPerClient * kRequestsPerThread; ++i) {
      uint32_t len = 0;
      ASSERT_TRUE(ReadFull(children[c].result_fd, &len, sizeof(len)))
          << "child " << c << " died before reporting result " << i;
      ASSERT_LT(len, 1u << 20) << "corrupt result stream from child " << c;
      std::string raw(len, '\0');
      ASSERT_TRUE(ReadFull(children[c].result_fd, raw.data(), len));
      actual[c].push_back(std::move(raw));
    }
  }

  uint32_t flood_ok = 0, flood_exhausted = 0;
  ASSERT_TRUE(
      ReadFull(children[kClients].result_fd, &flood_ok, sizeof(flood_ok)));
  ASSERT_TRUE(ReadFull(children[kClients].result_fd, &flood_exhausted,
                       sizeof(flood_exhausted)));

  for (const Child& child : children) {
    int status = 0;
    ASSERT_EQ(waitpid(child.pid, &status, 0), child.pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child pid " << child.pid << " exit status " << status;
    close(child.go_fd);
    close(child.result_fd);
  }

  // --- The flood was real and admission control answered it. ---
  EXPECT_GT(flood_exhausted, 0u);
  EXPECT_EQ(flood_ok + flood_exhausted, static_cast<uint32_t>(kFloodRequests));
  EXPECT_GE((*server)->backpressure_rejections(),
            static_cast<uint64_t>(flood_exhausted));

  (*server)->Stop();

  // --- Bit-identical check: replay the matrix in-process against the very
  // router the server was serving. Matched submissions never mutate the
  // store, so order and interleaving cannot have changed the answers. ---
  size_t compared = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kThreadsPerClient; ++t) {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        const SubmitJobRequest request = MatrixRequest(c, t, r);
        const auto expected = (*router)->SubmitJob(request);
        ASSERT_TRUE(expected.ok()) << expected.status();
        EXPECT_TRUE(expected->matched)
            << "matrix request (" << c << "," << t << "," << r
            << ") was not warm";
        EXPECT_FALSE(expected->stored_new_profile);
        const std::string& wire_bytes =
            actual[c][t * kRequestsPerThread + r];
        EXPECT_EQ(wire_bytes, EncodeSubmitJobResponse(*expected))
            << "wire response diverged from in-process serving for matrix "
            << "request (" << c << "," << t << "," << r << ")";
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, static_cast<size_t>(kClients * kThreadsPerClient *
                                          kRequestsPerThread));
}

}  // namespace
}  // namespace pstorm::rpc
