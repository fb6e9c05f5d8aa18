// serve/ tests: the JobScheduler policy (admission backpressure, stride
// fair sharing, priority ordering, cooperative cancellation) driven by
// synthetic runners, plus the full daemon stack — Session + WireServer —
// carrying real training jobs whose results must be bitwise identical to
// standalone api::run_job runs.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/job_result.hpp"
#include "api/job_spec.hpp"
#include "api/run_job.hpp"
#include "common/error.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "serve/wire.hpp"

namespace pipad::serve {
namespace {

using namespace std::chrono_literals;

/// One-shot barrier for gating synthetic runners.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return open; });
  }
};

api::JobSpec job(const std::string& tenant, int priority,
                 const std::string& tag = "") {
  api::JobSpec s;
  s.tenant = tenant;
  s.priority = priority;
  s.tag = tag;
  return s;
}

/// Runner that records invocation order; a job tagged "plug" blocks until
/// `release` fires (after signalling `started`), so tests can pile up a
/// known queue behind a busy executor.
JobScheduler::Runner recording_runner(std::vector<std::string>* order,
                                      std::mutex* order_mu, Gate* started,
                                      Gate* release) {
  return [=](const api::JobSpec& s, const std::atomic<bool>*) {
    if (s.tag == "plug") {
      started->release();
      release->wait();
    } else {
      std::lock_guard<std::mutex> lock(*order_mu);
      order->push_back(s.tenant + "/" + std::to_string(s.priority));
    }
    return api::JobResult{};
  };
}

TEST(Scheduler, AdmissionBackpressure) {
  std::vector<std::string> order;
  std::mutex order_mu;
  Gate started, release;
  SchedulerOptions opts;
  opts.queue_capacity = 2;
  opts.executors = 1;
  JobScheduler sched(opts,
                     recording_runner(&order, &order_mu, &started, &release));
  std::string error;
  const auto plug = sched.submit(job("t", 5, "plug"), error);
  ASSERT_NE(plug, 0u) << error;
  started.wait();  // The executor is busy; everything below queues.
  const auto q1 = sched.submit(job("t", 5), error);
  ASSERT_NE(q1, 0u) << error;
  const auto q2 = sched.submit(job("t", 5), error);
  ASSERT_NE(q2, 0u) << error;
  // Queue full: fail fast with the capacity in the message.
  EXPECT_EQ(sched.submit(job("t", 5), error), 0u);
  EXPECT_EQ(error, "admission queue full (capacity 2)");
  release.release();
  // Once every queued job is terminal the queue is empty — waiting on
  // the plug alone would race the executor's next pick.
  sched.wait(plug);
  sched.wait(q1);
  sched.wait(q2);
  const auto id = sched.submit(job("t", 5), error);
  ASSERT_NE(id, 0u) << error;
  EXPECT_EQ(sched.wait(id).state, "done");
}

TEST(Scheduler, PriorityOrderWithinTenantUnderContention) {
  std::vector<std::string> order;
  std::mutex order_mu;
  Gate started, release;
  SchedulerOptions opts;
  opts.executors = 1;
  JobScheduler sched(opts,
                     recording_runner(&order, &order_mu, &started, &release));
  std::string error;
  const auto plug = sched.submit(job("t", 5, "plug"), error);
  ASSERT_NE(plug, 0u) << error;
  started.wait();
  // Same tenant, mixed priorities, deliberately submitted low-first.
  const auto p2 = sched.submit(job("t", 2), error);
  const auto p9a = sched.submit(job("t", 9), error);
  const auto p5 = sched.submit(job("t", 5), error);
  const auto p9b = sched.submit(job("t", 9), error);
  ASSERT_TRUE(p2 && p9a && p5 && p9b) << error;
  release.release();
  // Highest priority first, FIFO among equals.
  EXPECT_EQ(sched.wait(plug).seq, 1u);
  EXPECT_EQ(sched.wait(p9a).seq, 2u);
  EXPECT_EQ(sched.wait(p9b).seq, 3u);
  EXPECT_EQ(sched.wait(p5).seq, 4u);
  EXPECT_EQ(sched.wait(p2).seq, 5u);
  const std::vector<std::string> want = {"t/9", "t/9", "t/5", "t/2"};
  EXPECT_EQ(order, want);
}

TEST(Scheduler, WeightedFairShareAcrossTenants) {
  std::vector<std::string> order;
  std::mutex order_mu;
  Gate started, release;
  SchedulerOptions opts;
  opts.executors = 1;
  JobScheduler sched(opts,
                     recording_runner(&order, &order_mu, &started, &release));
  std::string error;
  const auto plug = sched.submit(job("zz-plug", 5, "plug"), error);
  ASSERT_NE(plug, 0u) << error;
  started.wait();
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sched.submit(job("alice", 8), error));
    ASSERT_NE(ids.back(), 0u) << error;
  }
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sched.submit(job("bob", 2), error));
    ASSERT_NE(ids.back(), 0u) << error;
  }
  release.release();
  for (const auto id : ids) sched.wait(id);
  // Stride schedule: alice's pass advances 1/8 per pick, bob's 1/2, so
  // alice gets ~4x the slots while both are backlogged; once alice's
  // queue drains, bob's remainder runs. Deterministic, so exact.
  const std::vector<std::string> want = {
      "alice/8", "bob/2",   "alice/8", "alice/8", "alice/8", "alice/8",
      "bob/2",   "alice/8", "alice/8", "alice/8", "bob/2",   "bob/2",
      "bob/2",   "bob/2",   "bob/2",   "bob/2"};
  EXPECT_EQ(order, want);
}

TEST(Scheduler, CancelQueuedJobCompletesImmediately) {
  std::vector<std::string> order;
  std::mutex order_mu;
  Gate started, release;
  SchedulerOptions opts;
  opts.executors = 1;
  JobScheduler sched(opts,
                     recording_runner(&order, &order_mu, &started, &release));
  std::string error;
  const auto plug = sched.submit(job("t", 5, "plug"), error);
  ASSERT_NE(plug, 0u) << error;
  started.wait();
  const auto queued = sched.submit(job("t", 5), error);
  ASSERT_NE(queued, 0u) << error;
  EXPECT_TRUE(sched.cancel(queued));
  // Terminal before the plug even finishes — no executor involved.
  const api::JobResult r = sched.wait(queued);
  EXPECT_EQ(r.state, "cancelled");
  EXPECT_EQ(r.error, "job cancelled");
  EXPECT_EQ(r.seq, 1u);
  EXPECT_FALSE(sched.cancel(queued));  // Already terminal.
  EXPECT_FALSE(sched.cancel(999));     // Unknown id.
  release.release();
  EXPECT_EQ(sched.wait(plug).state, "done");
  EXPECT_TRUE(order.empty());  // The cancelled job never ran.
}

TEST(Scheduler, CancelRunningJobCooperatively) {
  Gate running;
  SchedulerOptions opts;
  opts.executors = 1;
  JobScheduler sched(opts, [&](const api::JobSpec&,
                               const std::atomic<bool>* cancel)
                               -> api::JobResult {
    running.release();
    while (!cancel->load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(1ms);
    }
    throw Cancelled();
  });
  std::string error;
  const auto id = sched.submit(job("t", 5), error);
  ASSERT_NE(id, 0u) << error;
  running.wait();
  JobInfo info;
  ASSERT_TRUE(sched.status(id, info));
  EXPECT_EQ(info.state, "running");
  EXPECT_TRUE(sched.cancel(id));
  const api::JobResult r = sched.wait(id);
  EXPECT_EQ(r.state, "cancelled");
  EXPECT_EQ(r.error, "job cancelled");
}

TEST(Scheduler, RunnerExceptionMarksJobFailed) {
  SchedulerOptions opts;
  JobScheduler sched(opts, [](const api::JobSpec&, const std::atomic<bool>*)
                               -> api::JobResult {
    throw Error("boom");
  });
  std::string error;
  const auto id = sched.submit(job("t", 5), error);
  ASSERT_NE(id, 0u) << error;
  const api::JobResult r = sched.wait(id);
  EXPECT_EQ(r.state, "failed");
  EXPECT_EQ(r.error, "boom");
}

TEST(Scheduler, TerminalHistoryIsBounded) {
  SchedulerOptions opts;
  opts.executors = 1;
  opts.max_terminal_jobs = 2;
  JobScheduler sched(opts, [](const api::JobSpec&, const std::atomic<bool>*) {
    return api::JobResult{};
  });
  std::string error;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sched.submit(job("t", 5), error));
    ASSERT_NE(ids.back(), 0u) << error;
    EXPECT_EQ(sched.wait(ids.back()).state, "done");
  }
  // Only the two newest terminal jobs are retained — a long-running
  // daemon must not hold every result payload it ever produced. An
  // evicted id answers exactly like an unknown one.
  EXPECT_EQ(sched.jobs().size(), 2u);
  JobInfo info;
  EXPECT_FALSE(sched.status(ids[0], info));
  EXPECT_FALSE(sched.status(ids[1], info));
  ASSERT_TRUE(sched.status(ids[2], info));
  EXPECT_EQ(info.state, "done");
  EXPECT_THROW(sched.wait(ids[0]), Error);
  EXPECT_EQ(sched.wait(ids[3]).state, "done");
}

TEST(Scheduler, ShutdownDrainsQueueAndRejectsNewWork) {
  SchedulerOptions opts;
  opts.executors = 1;
  JobScheduler sched(opts, [](const api::JobSpec&,
                              const std::atomic<bool>* cancel)
                               -> api::JobResult {
    while (!cancel->load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(1ms);
    }
    throw Cancelled();
  });
  std::string error;
  const auto running = sched.submit(job("t", 5), error);
  const auto queued1 = sched.submit(job("t", 5), error);
  const auto queued2 = sched.submit(job("t", 5), error);
  ASSERT_TRUE(running && queued1 && queued2) << error;
  sched.shutdown();
  // Queued jobs went terminal in shutdown(); the running one was flagged
  // and cancelled cooperatively before shutdown() joined the executor.
  EXPECT_EQ(sched.wait(running).state, "cancelled");
  EXPECT_EQ(sched.wait(queued1).state, "cancelled");
  EXPECT_EQ(sched.wait(queued2).state, "cancelled");
  EXPECT_EQ(sched.submit(job("t", 5), error), 0u);
  EXPECT_EQ(error, "scheduler is shut down");
  EXPECT_THROW(sched.wait(999), Error);
}

// ---- the real stack: Session + api::run_job ----

api::JobSpec tiny_job(const std::string& model, int priority) {
  api::JobSpec s;
  s.model = model;
  s.priority = priority;
  s.nodes = 200;
  s.events = 1500;
  s.snapshots = 4;
  s.frame_size = 4;
  s.epochs = 1;
  s.frames = 2;
  s.return_params = true;
  return s;
}

TEST(Session, CancelMidTrainingRun) {
  SessionOptions opts;
  opts.threads = 2;
  opts.executors = 1;
  Session session(opts);
  // Big enough that cancellation always lands mid-run: the default-size
  // synthetic dataset for many epochs takes seconds standalone.
  api::JobSpec s;
  s.epochs = 200;
  s.frames = 0;
  std::string error;
  const auto id = session.submit(s, error);
  ASSERT_NE(id, 0u) << error;
  JobInfo info;
  while (session.status(id, info) && info.state == "queued") {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(info.state, "running");
  EXPECT_TRUE(session.cancel(id));
  const api::JobResult r = session.wait(id);
  EXPECT_EQ(r.state, "cancelled");
  EXPECT_EQ(r.error, "job cancelled");
  EXPECT_TRUE(r.frame_loss.empty());  // No partial payload.
}

TEST(Session, InvalidSpecRejectedAtSubmit) {
  SessionOptions opts;
  opts.threads = 2;
  Session session(opts);
  api::JobSpec s;
  s.model = "transformer";
  std::string error;
  EXPECT_EQ(session.submit(s, error), 0u);
  EXPECT_NE(error.find("transformer"), std::string::npos);
}

// ---- the wire ----

std::string test_socket(const std::string& name) {
  // AF_UNIX paths are limited to ~108 bytes; TempDir() is /tmp-ish.
  return ::testing::TempDir() + name;
}

/// Raw client for malformed-input tests (WireClient can only send JSON).
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

std::string raw_request(int fd, const std::string& line) {
  const std::string out = line + '\n';
  EXPECT_EQ(::write(fd, out.data(), out.size()),
            static_cast<ssize_t>(out.size()));
  std::string buf;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') buf.push_back(c);
  return buf;
}

TEST(Wire, MalformedRequestsGetCleanErrorsAndTheDaemonSurvives) {
  SessionOptions sopts;
  sopts.threads = 2;
  Session session(sopts);
  const std::string path = test_socket("pipad_wire_malformed.sock");
  WireServer server(session, path);

  const int fd = raw_connect(path);
  for (const char* bad : {
           "this is not json",
           "{\"op\":\"submit\",",               // truncated JSON
           "[1,2,3]",                            // not an object
           "{\"no_op\":1}",                      // missing op
           "{\"op\":\"bogus\"}",                 // unknown op
           "{\"op\":\"status\"}",                // missing id
           "{\"op\":\"status\",\"id\":-1}",      // bad id
           "{\"op\":\"status\",\"id\":999}",     // unknown id
           "{\"op\":\"submit\"}",                // missing spec
           "{\"op\":\"submit\",\"spec\":{\"modle\":\"x\"}}",  // unknown field
           "{\"op\":\"submit\",\"spec\":{\"model\":\"transformer\"}}",
       }) {
    const std::string response = raw_request(fd, bad);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos)
        << bad << " -> " << response;
    EXPECT_NE(response.find("\"error\""), std::string::npos) << bad;
  }
  // Same connection still serves valid requests: nothing died.
  EXPECT_NE(raw_request(fd, "{\"op\":\"list\"}").find("\"ok\":true"),
            std::string::npos);
  ::close(fd);

  WireClient client(path);
  api::Json list = api::Json::object();
  list.set("op", "list");
  const api::Json response = client.request(list);
  EXPECT_TRUE(response.find("ok")->as_bool());
  EXPECT_TRUE(response.find("jobs")->items().empty());

  session.shutdown();
  server.stop();
}

TEST(Wire, OversizedRequestLineGetsAnErrorAndTheConnectionDropped) {
  SessionOptions sopts;
  sopts.threads = 2;
  Session session(sopts);
  const std::string path = test_socket("pipad_wire_oversized.sock");
  WireServer server(session, path);

  const int fd = raw_connect(path);
  // Stream 4 MiB + change with no newline: the daemon must cap its
  // buffer, answer with an error, and drop the connection — not grow
  // until the box runs out of memory.
  const std::string chunk(64 << 10, 'x');
  const std::size_t total = (std::size_t{4} << 20) + chunk.size();
  std::size_t sent = 0;
  while (sent < total) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // Server already hung up; that's fine too.
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') response.push_back(c);
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("request line exceeds"), std::string::npos)
      << response;
  // Connection dropped after the error: EOF, or RST (read -1) when the
  // server closed with our unconsumed tail bytes still queued.
  EXPECT_LE(::read(fd, &c, 1), 0);
  ::close(fd);

  // The daemon itself is unharmed.
  WireClient client(path);
  api::Json list = api::Json::object();
  list.set("op", "list");
  EXPECT_TRUE(client.request(list).find("ok")->as_bool());

  session.shutdown();
  server.stop();
}

std::size_t open_fd_count() {
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

// Regression for the fd/thread-per-connection leak: each `pipad submit`
// is one connection, and the daemon used to park every connection's fd
// and thread until stop() — ~1024 clients in, accept() died with EMFILE
// and the daemon went deaf forever.
TEST(Wire, SequentialConnectionsDoNotAccreteFds) {
  SessionOptions sopts;
  sopts.threads = 2;
  Session session(sopts);
  const std::string path = test_socket("pipad_wire_churn.sock");
  WireServer server(session, path);

  const std::size_t before = open_fd_count();
  for (int i = 0; i < 64; ++i) {
    WireClient client(path);
    api::Json list = api::Json::object();
    list.set("op", "list");
    EXPECT_TRUE(client.request(list).find("ok")->as_bool());
  }
  // The server closes its side on client EOF, asynchronously.
  std::size_t after = 0;
  for (int tries = 0; tries < 2000; ++tries) {
    after = open_fd_count();
    if (after <= before + 4) break;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LE(after, before + 4) << "server connections leaked fds";

  session.shutdown();
  server.stop();
}

api::Json submit_request(const api::JobSpec& spec) {
  api::Json req = api::Json::object();
  req.set("op", "submit");
  req.set("spec", spec.to_json());
  return req;
}

std::uint64_t wire_submit(WireClient& client, const api::JobSpec& spec) {
  const api::Json response = client.request(submit_request(spec));
  EXPECT_TRUE(response.find("ok")->as_bool()) << response.dump();
  return static_cast<std::uint64_t>(response.find("id")->as_int());
}

api::JobResult wire_wait(WireClient& client, std::uint64_t id) {
  api::Json req = api::Json::object();
  req.set("op", "wait");
  req.set("id", id);
  const api::Json response = client.request(req);
  EXPECT_TRUE(response.find("ok")->as_bool()) << response.dump();
  api::JobResult result;
  std::string error;
  EXPECT_TRUE(api::JobResult::from_json(*response.find("result"), result,
                                        error))
      << error;
  return result;
}

// The acceptance case: concurrent jobs mixing every model and several
// priorities, submitted over the wire, must produce frame losses and
// parameters bitwise identical to standalone api::run_job runs of the
// same specs at the session's pinned thread width.
TEST(Wire, ConcurrentMixedJobsBitwiseIdenticalToStandalone) {
  SessionOptions sopts;
  sopts.threads = 2;
  sopts.executors = 2;  // Genuine concurrency between jobs.
  Session session(sopts);

  const std::vector<api::JobSpec> specs = {
      tiny_job("gcn", 3), tiny_job("tgcn", 9), tiny_job("evolvegcn", 5),
      tiny_job("mpnn-lstm", 7)};

  // Standalone reference runs on the same pool width the session pinned.
  std::vector<api::RunOutput> expected;
  for (api::JobSpec s : specs) {
    s.threads = session.threads();
    expected.push_back(api::run_job(s));
  }

  const std::string path = test_socket("pipad_wire_accept.sock");
  WireServer server(session, path);
  WireClient client(path);
  std::vector<std::uint64_t> ids;
  for (const auto& s : specs) ids.push_back(wire_submit(client, s));

  for (std::size_t i = 0; i < ids.size(); ++i) {
    // Each wait on its own connection, so blocked waits can overlap.
    WireClient waiter(path);
    const api::JobResult r = wire_wait(waiter, ids[i]);
    ASSERT_EQ(r.state, "done") << r.error;
    EXPECT_EQ(r.priority, specs[i].priority);
    const auto& want = expected[i];
    ASSERT_EQ(r.frame_loss.size(), want.train.frame_loss.size()) << i;
    EXPECT_EQ(std::memcmp(r.frame_loss.data(), want.train.frame_loss.data(),
                          r.frame_loss.size() * sizeof(float)),
              0)
        << "frame losses diverged for job " << i;
    ASSERT_EQ(r.params.size(), want.params.size()) << i;
    EXPECT_EQ(std::memcmp(r.params.data(), want.params.data(),
                          r.params.size() * sizeof(float)),
              0)
        << "params diverged for job " << i;
    ASSERT_FALSE(r.record.is_null());
    EXPECT_EQ(r.record.find("model")->as_string(), specs[i].model);
    EXPECT_EQ(r.record.find("schema_version")->as_int(),
              api::kBenchRecordSchemaVersion);
  }

  session.shutdown();
  server.stop();
}

// Priority ordering under a saturated admission queue, all through the
// wire: a long-running plug occupies the single executor, three queued
// jobs run highest-priority-first once it is cancelled, and the fourth
// submission bounces off the full queue.
TEST(Wire, PriorityOrderUnderSaturatedAdmissionQueue) {
  SessionOptions sopts;
  sopts.threads = 2;
  sopts.executors = 1;
  sopts.queue_capacity = 3;
  Session session(sopts);
  const std::string path = test_socket("pipad_wire_priority.sock");
  WireServer server(session, path);
  WireClient client(path);

  api::JobSpec plug;  // Default-size dataset, long run.
  plug.epochs = 200;
  plug.frames = 0;
  plug.tag = "plug";
  const auto plug_id = wire_submit(client, plug);
  for (;;) {
    api::Json req = api::Json::object();
    req.set("op", "status");
    req.set("id", plug_id);
    const api::Json response = client.request(req);
    ASSERT_TRUE(response.find("ok")->as_bool()) << response.dump();
    if (response.find("job")->find("state")->as_string() == "running") break;
    std::this_thread::sleep_for(1ms);
  }

  const auto low = wire_submit(client, tiny_job("gcn", 2));
  const auto high = wire_submit(client, tiny_job("tgcn", 9));
  const auto mid = wire_submit(client, tiny_job("gcn", 5));
  // Queue (capacity 3) is saturated: backpressure over the wire.
  const api::Json full = client.request(submit_request(tiny_job("gcn", 5)));
  EXPECT_FALSE(full.find("ok")->as_bool());
  EXPECT_EQ(full.find("error")->as_string(),
            "admission queue full (capacity 3)");

  // Cancel the plug mid-run; the backlog then drains by priority.
  api::Json cancel = api::Json::object();
  cancel.set("op", "cancel");
  cancel.set("id", plug_id);
  EXPECT_TRUE(client.request(cancel).find("ok")->as_bool());

  EXPECT_EQ(wire_wait(client, plug_id).state, "cancelled");
  const api::JobResult r_high = wire_wait(client, high);
  const api::JobResult r_mid = wire_wait(client, mid);
  const api::JobResult r_low = wire_wait(client, low);
  EXPECT_EQ(r_high.state, "done") << r_high.error;
  EXPECT_EQ(r_high.seq, 2u);
  EXPECT_EQ(r_mid.seq, 3u);
  EXPECT_EQ(r_low.seq, 4u);

  session.shutdown();
  server.stop();
}

}  // namespace
}  // namespace pipad::serve
