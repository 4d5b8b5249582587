// Fixture: reading a std::chrono clock must trip MB-DET-003 (wall time
// belongs in mbbench, not in simulated behaviour).
#include <chrono>

long long stampNow() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
