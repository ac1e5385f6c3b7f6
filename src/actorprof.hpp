// Umbrella header: the whole public API in one include.
//
//   #include "actorprof.hpp"
//
// pulls in the SPMD runtime (ap::rt, ap::hclib), the OpenSHMEM substrate
// (ap::shmem), Conveyors (ap::convey), HClib-Actor (ap::actor), sim-PAPI
// (ap::papi), the ActorProf profiler with traces/advisor/exports
// (ap::prof), the visualization renderers (ap::viz), and the graph +
// application toolkits (ap::graph, ap::apps).
#pragma once

#include "actor/selector.hpp"
#include "apps/bfs.hpp"
#include "apps/histogram.hpp"
#include "apps/index_gather.hpp"
#include "apps/jaccard.hpp"
#include "apps/pagerank.hpp"
#include "apps/randperm.hpp"
#include "apps/toposort.hpp"
#include "apps/triangle.hpp"
#include "conveyor/conveyor.hpp"
#include "core/advisor.hpp"
#include "core/chrome_trace.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/csr.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "papi/cycles.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/profiling_interface.hpp"
#include "shmem/shmem.hpp"
#include "viz/render.hpp"
#include "viz/svg.hpp"
