#include "core/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace ap::prof {

namespace {

/// Lenient 0/1 parse used by the four original trace toggles: any
/// non-empty value other than "0" means on. Kept as-is for back-compat —
/// scripts in the wild pass values like "yes".
bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return v[0] != '0' && v[0] != '\0';
}

[[noreturn]] void bad_value(const char* name, const char* text,
                            const char* expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + text +
                              "\": expected " + expected);
}

/// Strict boolean: exactly "0" or "1".
bool env_bool_strict(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  if (s == "0") return false;
  if (s == "1") return true;
  bad_value(name, v, "0 or 1");
}

/// Strict positive double (whole string must parse, value must be finite
/// and >= min).
double env_double_strict(const char* name, double fallback, double min,
                         const char* expected) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !(parsed >= min))
    bad_value(name, v, expected);
  return parsed;
}

/// Strict positive integer (whole string must parse, value must be > 0).
std::size_t env_size_strict(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || parsed <= 0)
    bad_value(name, v, "a positive integer");
  return static_cast<std::size_t>(parsed);
}

/// Strict "host:port" parse: exactly one colon, a non-empty host, and an
/// all-digits port in 1..65535.
std::string env_hostport_strict(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  const std::size_t colon = s.find(':');
  if (colon == 0 || colon == std::string::npos ||
      s.find(':', colon + 1) != std::string::npos)
    bad_value(name, v, "host:port");
  const std::string port = s.substr(colon + 1);
  if (port.empty() || port.size() > 5 ||
      port.find_first_not_of("0123456789") != std::string::npos)
    bad_value(name, v, "host:port");
  const long p = std::strtol(port.c_str(), nullptr, 10);
  if (p < 1 || p > 65535) bad_value(name, v, "host:port with port 1-65535");
  return s;
}

/// Strict trace-format parse: exactly "csv" or "binary".
TraceFormat env_format_strict(const char* name, TraceFormat fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  if (s == "csv") return TraceFormat::csv;
  if (s == "binary") return TraceFormat::binary;
  bad_value(name, v, "\"csv\" or \"binary\"");
}

}  // namespace

Config Config::from_env() {
  Config c;
  c.logical = env_flag("ACTORPROF_TRACE", c.logical);
  c.papi = env_flag("ACTORPROF_PAPI", c.papi);
  c.overall = env_flag("ACTORPROF_TCOMM_PROFILING", c.overall);
  c.physical = env_flag("ACTORPROF_TRACE_PHYSICAL", c.physical);
  if (const char* dir = std::getenv("ACTORPROF_TRACE_DIR")) c.trace_dir = dir;
  c.trace_format = env_format_strict("ACTORPROF_TRACE_FORMAT", c.trace_format);
  c.trace_compress =
      env_bool_strict("ACTORPROF_TRACE_COMPRESS", c.trace_compress);
  c.publish = env_hostport_strict("ACTORPROF_PUBLISH", c.publish);
  if (const char* run = std::getenv("ACTORPROF_PUBLISH_RUN"))
    c.publish_run = run;

  c.supersteps = env_bool_strict("ACTORPROF_SUPERSTEPS", c.supersteps);
  c.timeline = env_bool_strict("ACTORPROF_TIMELINE", c.timeline);
  c.metrics = env_bool_strict("ACTORPROF_METRICS", c.metrics);
  c.metrics_interval_virtual_ms = env_double_strict(
      "ACTORPROF_METRICS_INTERVAL_MS", c.metrics_interval_virtual_ms,
      /*min=*/1e-9, "a positive number of virtual milliseconds");
  c.metrics_ring_capacity =
      env_size_strict("ACTORPROF_METRICS_RING", c.metrics_ring_capacity);
  c.metrics_straggler_factor = env_double_strict(
      "ACTORPROF_METRICS_STRAGGLER_FACTOR", c.metrics_straggler_factor,
      /*min=*/1.0, "a factor >= 1.0");
  c.check = env_bool_strict("ACTORPROF_CHECK", c.check);
  // A kill experiment is pointless without mid-run checkpoints, so the
  // kill variable flips the default; ACTORPROF_CRASH_SAFE still wins.
  const bool crash_default =
      c.crash_safe || std::getenv("ACTORPROF_FI_KILL_PE") != nullptr;
  c.crash_safe = env_bool_strict("ACTORPROF_CRASH_SAFE", crash_default);
  return c;
}

}  // namespace ap::prof
