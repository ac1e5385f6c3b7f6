#include "runtime/backend.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace ap::rt {

namespace {

// Written by the scheduler on the launching thread before any worker
// thread is created and reset after they have all joined, so reads from
// inside a launch are ordered by thread creation/join. No launch active =>
// the default.
Backend g_current_backend = Backend::fiber;

// Same strict-parse error shape as prof::Config::from_env (core/config.cpp)
// so a typo'd ACTORPROF_BACKEND reads like a typo'd ACTORPROF_METRICS.
[[noreturn]] void bad_value(const char* name, const char* text,
                            const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + text +
                              "\": expected " + expected);
}

Backend backend_from_env() {
  const char* v = std::getenv("ACTORPROF_BACKEND");
  if (v == nullptr) return Backend::fiber;
  const std::string s(v);
  if (s == "fiber") return Backend::fiber;
  if (s == "threads") return Backend::threads;
  bad_value("ACTORPROF_BACKEND", v, "\"fiber\" or \"threads\"");
}

int threads_from_env() {
  const char* v = std::getenv("ACTORPROF_THREADS");
  if (v == nullptr) return 0;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed <= 0 ||
      parsed > 1'000'000)
    bad_value("ACTORPROF_THREADS", v, "a positive integer");
  return static_cast<int>(parsed);
}

}  // namespace

Backend resolve_backend(Backend requested) {
  if (requested != Backend::auto_) return requested;
  return backend_from_env();
}

int resolve_num_threads(int requested, int num_pes) {
  int n = requested;
  if (n <= 0) n = threads_from_env();
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;  // hardware_concurrency() may report 0
  if (n > num_pes) n = num_pes;
  return n;
}

Backend current_backend() { return g_current_backend; }

namespace detail {
void set_current_backend(Backend b) { g_current_backend = b; }
}  // namespace detail

}  // namespace ap::rt
