#pragma once

// collect_counters — populate a CounterRegistry from a quiescent Machine.
//
// Header-only on purpose: the trace library sits *below* machine in the link
// order (OLB and cache link against it), so the one function that reads the
// whole Machine lives here and compiles into whichever higher layer calls it
// (benchlib, tests, user code). Call after Machine::run has returned; the
// per-PE structures are single-owner and must be quiescent.
//
// Counter semantics are documented in docs/OBSERVABILITY.md; the invariant
// tests/trace/counters_test.cpp locks down is that every value equals the
// sum (or max, for cycles) of the raw per-PE stat fields it aggregates.

#include "machine/machine.hpp"
#include "trace/counters.hpp"

namespace xbgas {

inline CounterRegistry collect_counters(const Machine& machine) {
  CounterRegistry reg;
  reg.set("machine.pes", static_cast<std::uint64_t>(machine.n_pes()));
  reg.set("cycles.max", machine.max_cycles());

  for (int r = 0; r < machine.n_pes(); ++r) {
    const PeContext& pe = machine.pe(r);

    const OlbStats& olb = pe.olb().stats();
    reg.add("olb.lookups", olb.lookups);
    reg.add("olb.hits", olb.hits);
    reg.add("olb.misses", olb.misses);
    reg.add("olb.local_shortcuts", olb.local_shortcuts);

    const CacheStats& l1 = pe.cache().l1().stats();
    reg.add("cache.l1.accesses", l1.accesses);
    reg.add("cache.l1.hits", l1.hits);
    reg.add("cache.l1.misses", l1.misses);
    reg.add("cache.l1.evictions", l1.evictions);

    const CacheStats& l2 = pe.cache().l2().stats();
    reg.add("cache.l2.accesses", l2.accesses);
    reg.add("cache.l2.hits", l2.hits);
    reg.add("cache.l2.misses", l2.misses);
    reg.add("cache.l2.evictions", l2.evictions);

    const TlbStats& tlb = pe.cache().tlb().stats();
    reg.add("cache.tlb.accesses", tlb.accesses);
    reg.add("cache.tlb.hits", tlb.hits);
    reg.add("cache.tlb.misses", tlb.misses);
  }

  const NetTotals net = machine.network().totals();
  reg.set("net.messages", net.messages);
  reg.set("net.bytes", net.bytes);
  reg.set("net.puts", net.puts);
  reg.set("net.gets", net.gets);
  reg.set("net.hops", net.hops);
  reg.set("net.phases", net.phases);
  reg.set("net.stall_cycles", net.stall_cycles);
  reg.set("net.phase_bytes_open", machine.network().phase_bytes());

  const LinkFaults& links = machine.network().link_faults();
  reg.set("net.link.down_observed", links.down_observed());
  reg.set("net.link.degraded_observed", links.degraded_observed());
  reg.set("net.link.healed", links.heals());

  const Tracer& tracer = machine.tracer();
  reg.set("trace.enabled", tracer.enabled() ? 1 : 0);
  reg.set("trace.recorded", tracer.total_recorded());
  reg.set("trace.dropped", tracer.total_dropped());

  const FaultCounters& fault = machine.fault_injector().counters();
  const auto ld = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  reg.set("fault.injected.rma_drop", ld(fault.rma_drops));
  reg.set("fault.injected.rma_delay", ld(fault.rma_delays));
  reg.set("fault.injected.bitflip", ld(fault.rma_bitflips));
  reg.set("fault.injected.olb_fault", ld(fault.olb_faults));
  reg.set("fault.injected.kills", ld(fault.kills));
  reg.set("fault.injected.amo_drop", ld(fault.amo_drops));
  reg.set("fault.injected.amo_delay", ld(fault.amo_delays));
  reg.set("fault.injected.link_down", ld(fault.link_down_drops));
  reg.set("fault.injected.link_degraded", ld(fault.link_degraded));
  reg.set("fault.injected.unreachable", ld(fault.pe_unreachable));
  reg.set("rma.retries", ld(fault.rma_retries));
  reg.set("amo.retries", ld(fault.amo_retries));
  reg.set("rma.checksum_failures", ld(fault.checksum_failures));
  reg.set("barrier.timeouts", ld(fault.barrier_timeouts));
  reg.set("machine.pes_alive", static_cast<std::uint64_t>(machine.n_alive()));
  reg.set("machine.pes_failed",
          static_cast<std::uint64_t>(machine.n_pes() - machine.n_alive()));

  const RecoveryCounters& rc = machine.recovery().counters();
  reg.set("recovery.epoch", machine.recovery().epoch());
  reg.set("recovery.agreements", ld(rc.agreements));
  reg.set("recovery.shrinks", ld(rc.shrinks));
  reg.set("recovery.revokes", ld(rc.revokes));
  reg.set("recovery.checkpoints", ld(rc.checkpoints));
  reg.set("recovery.restores", ld(rc.restores));
  reg.set("recovery.checkpointed_bytes", ld(rc.checkpointed_bytes));
  reg.set("recovery.restored_bytes", ld(rc.restored_bytes));
  reg.set("recovery.orphaned_bytes", ld(rc.orphaned_bytes));

  // The worker count and the switch/nap tallies describe the host scheduler,
  // not the simulated machine: with more than one worker they vary run to
  // run with OS scheduling (docs/SCALING.md).
  const SchedStats ss = machine.sched_stats();
  constexpr CounterClass kHost = CounterClass::kHost;
  reg.set("sched.regions", ss.regions);
  reg.set("sched.fibers", ss.fibers);
  reg.set("sched.workers", ss.workers, kHost);
  reg.set("sched.switches", ss.switches, kHost);
  reg.set("sched.yields_waiting", ss.yields_waiting, kHost);
  reg.set("sched.injected_yields", ss.injected_yields);
  reg.set("sched.naps", ss.naps, kHost);

  const Sanitizer& san = machine.sanitizer();
  const Sanitizer::Counters sc = san.counters();
  reg.set("san.enabled", san.enabled() ? 1 : 0);
  reg.set("san.bounds_checks", sc.bounds_checks);
  reg.set("san.ledger_records", sc.ledger_records);
  reg.set("san.ledger_dropped", sc.ledger_dropped);
  reg.set("san.epochs", sc.epochs);
  reg.set("san.nb_tracked", sc.nb_tracked);
  reg.set("san.violations", sc.violations);
  return reg;
}

}  // namespace xbgas
