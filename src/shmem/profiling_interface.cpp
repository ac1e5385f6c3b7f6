#include "shmem/profiling_interface.hpp"

namespace ap::shmem {

// Plain global (was thread_local): installed on the launching thread
// before any worker thread exists (threads backend), cleared after they
// join — thread creation/join orders both transitions.
RmaObserver* detail::g_rma_observer = nullptr;

void set_rma_observer(RmaObserver* obs) { detail::g_rma_observer = obs; }

}  // namespace ap::shmem
