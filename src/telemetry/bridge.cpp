#include "telemetry/bridge.hpp"

#include "mem/copy_kernel.hpp"

namespace hmr::telemetry {

void export_policy_stats(MetricsRegistry& reg,
                         const ooc::PolicyEngine::Stats& st,
                         const std::string& labels) {
  const struct {
    const char* name;
    const char* help;
    std::uint64_t value;
  } fields[] = {
      {"hmr_policy_tasks_run_total", "OOC tasks executed", st.tasks_run},
      {"hmr_policy_fetches_total", "Block fetches issued", st.fetches},
      {"hmr_policy_fetch_bytes_total", "Bytes fetched upward",
       st.fetch_bytes},
      {"hmr_policy_evicts_total", "Block evictions issued", st.evicts},
      {"hmr_policy_evict_bytes_total", "Bytes evicted downward",
       st.evict_bytes},
      {"hmr_policy_fetch_dedup_hits_total",
       "Fetches saved by in-flight dedup", st.fetch_dedup_hits},
      {"hmr_policy_lru_reclaims_total", "Lazy LRU reclaim evictions",
       st.lru_reclaims},
      {"hmr_policy_advised_pins_total", "Advisor pin decisions honored",
       st.advised_pins},
      {"hmr_policy_advised_bypasses_total",
       "Advisor streaming-bypass decisions", st.advised_bypasses},
      {"hmr_policy_advised_demotions_total",
       "Advisor demote-first victims", st.advised_demotions},
      {"hmr_policy_cascade_demotions_total",
       "Demotions that landed on a middle level", st.cascade_demotions},
      {"hmr_policy_tier_trims_total",
       "Evictions out of a middle level (watermark trims)",
       st.tier_trims},
      {"hmr_remote_fetches_total",
       "Promotions pulled from a Remote-backed tier", st.remote_fetches},
      {"hmr_remote_fetch_bytes_total",
       "Bytes promoted over the network", st.remote_fetch_bytes},
      {"hmr_remote_evicts_total",
       "Demotions spilled to a Remote-backed tier", st.remote_evicts},
      {"hmr_remote_evict_bytes_total",
       "Bytes spilled over the network", st.remote_evict_bytes},
  };
  for (const auto& f : fields) {
    reg.counter(f.name, labels, f.help).set(f.value);
  }
}

void export_contention(MetricsRegistry& reg,
                       const trace::ContentionStats& cs) {
  for (std::size_t s = 0; s < cs.shards(); ++s) {
    const auto t = cs.shard_totals(s);
    const std::string labels = prom_label("shard", std::to_string(s));
    reg.counter("hmr_lock_acquisitions_total", labels,
                "Scheduler lock acquisitions")
        .set(t.acquisitions);
    reg.counter("hmr_lock_contended_total", labels,
                "Scheduler lock acquisitions that had to wait")
        .set(t.contended);
    reg.gauge("hmr_lock_wait_seconds", labels,
              "Total time blocked on the scheduler lock")
        .set(t.wait_s);
  }
}

void export_chunk_ring(MetricsRegistry& reg, const mem::ChunkRing& ring) {
  reg.counter("hmr_chunk_jobs_total", "",
              "Large copies streamed through the chunk ring")
      .set(ring.jobs());
  reg.counter("hmr_chunk_chunks_copied_total", "",
              "Chunks copied (all threads)")
      .set(ring.chunks_copied());
  reg.counter("hmr_chunk_chunks_assisted_total", "",
              "Chunks copied by assisting threads")
      .set(ring.chunks_assisted());
  reg.counter("hmr_copy_ring_fallbacks_total", "",
              "Large copies that found all ring slots busy and degraded "
              "to a single un-assisted copy")
      .set(ring.ring_fallbacks());
}

void export_data_movement(MetricsRegistry& reg,
                          const mem::MemoryManager& mm) {
  reg.counter("hmr_copy_nt_copies_total", "",
              "Copies routed through the non-temporal-store kernel")
      .set(mem::copy_nt_copies());
  reg.counter("hmr_copy_nt_bytes_total", "",
              "Bytes moved with non-temporal stores")
      .set(mem::copy_nt_bytes());
  reg.counter("hmr_zero_copy_admissions_total", "",
              "Migrations completed without a copy (shadow swap, "
              "deferral or fetch back)")
      .set(mm.zero_copy_admissions());
  reg.counter("hmr_zero_copy_bytes_total", "",
              "Bytes whose migration copy was skipped")
      .set(mm.zero_copy_bytes());
  reg.counter("hmr_shadow_invalidations_total", "",
              "Shadows dropped by writes or capacity reclaim")
      .set(mm.shadow_invalidations());
  reg.counter("hmr_write_back_deferrals_total", "",
              "Evictions into the bottom tier whose copy was deferred")
      .set(mm.deferrals());
  reg.counter("hmr_write_backs_total", "",
              "Deferred blocks copied out when their tier needed the space")
      .set(mm.write_backs());
  reg.counter("hmr_write_back_bytes_total", "",
              "Bytes copied by deferred write-backs")
      .set(mm.write_back_bytes());
}

} // namespace hmr::telemetry
