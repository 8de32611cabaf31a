// Umbrella header: the complete public API of the PolyMem library.
//
//   #include "polymem.hpp"
//
// pulls in everything a downstream application needs:
//
//   core    — PolyMem / CyclePolyMem, the parallel memory itself
//   access  — patterns, regions, 2D coordinates
//   apps    — verified application kernels (transpose, stencil, matvec)
//   maf     — schemes, module assignment functions, the capability oracle
//   prf     — logical registers (runtime polymorphism, paper Fig. 2)
//   hw      — BRAM/crossbar/Benes/FIFO/clock simulation primitives
//   maxsim  — the simulated Maxeler platform (PCIe, LMem, kernels, DMA)
//   stream  — the STREAM benchmark design and host driver
//   synth   — device database, resource and frequency models
//   dse     — design-space exploration and table/figure reports
//   sched   — access traces, set covering, the schedule optimiser
//
// Individual module headers remain includable on their own for faster
// incremental builds.
#pragma once

#include "access/pattern.hpp"
#include "access/region.hpp"
#include "apps/matvec_app.hpp"
#include "apps/stencil_app.hpp"
#include "apps/transpose_app.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "core/cycle_polymem.hpp"
#include "core/layout.hpp"
#include "core/polymem.hpp"
#include "dse/explorer.hpp"
#include "dse/report.hpp"
#include "hw/benes.hpp"
#include "hw/bram.hpp"
#include "hw/clock.hpp"
#include "hw/crossbar.hpp"
#include "hw/fifo.hpp"
#include "hw/pipeline.hpp"
#include "maf/addressing.hpp"
#include "maf/conflict.hpp"
#include "maf/maf.hpp"
#include "maf/scheme.hpp"
#include "maxsim/dfe.hpp"
#include "maxsim/dma.hpp"
#include "maxsim/kernel.hpp"
#include "maxsim/lmem.hpp"
#include "maxsim/manager.hpp"
#include "maxsim/pcie.hpp"
#include "prf/fig2.hpp"
#include "prf/register_file.hpp"
#include "sched/execute.hpp"
#include "sched/scheduler.hpp"
#include "sched/setcover.hpp"
#include "sched/trace.hpp"
#include "stream/host.hpp"
#include "synth/calibration.hpp"
#include "synth/fmax_model.hpp"
#include "synth/resource_model.hpp"
#include "synth/virtex6.hpp"
