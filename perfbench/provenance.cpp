#include "provenance.hpp"

#include <sched.h>

#include <ctime>
#include <sstream>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Provenance::json() const {
  std::ostringstream os;
  os << "{\"commit\": " << quoted(commit)
     << ", \"source_digest\": " << quoted(source_digest)
     << ", \"build_type\": " << quoted(build_type)
     << ", \"compiler\": " << quoted(compiler)
     << ", \"usable_cores\": " << usable_cores << ", \"lanes\": " << lanes
     << ", \"seed\": " << seed << ", \"date\": " << quoted(date) << "}";
  return os.str();
}

unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string utc_now() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace perfbench
