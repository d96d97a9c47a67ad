#include "sim/run_many.hpp"

#include <algorithm>

namespace distapx::sim {

unsigned resolve_threads(unsigned requested, std::size_t jobs) {
  unsigned workers =
      requested != 0 ? requested
                     : std::max(1u, std::thread::hardware_concurrency());
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(jobs, 1)));
  return workers;
}

}  // namespace distapx::sim
