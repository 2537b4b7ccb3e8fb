/**
 * @file
 * KV-cache memory model for the serving simulator.
 *
 * Applies the paper's per-device memory analysis (Sec. 3.1,
 * model/memory.hh) to inference: each device's HBM is split into the
 * resident model state, a transient activation working set for the
 * tokens of one engine step, and the remainder — the KV-cache pool
 * that actually bounds concurrency in vLLM/Orca-class engines. The
 * continuous batcher admits and grows sequences against that pool
 * instead of a fixed slot count, so memory pressure (not a magic
 * `maxRunning` constant) limits the batch.
 *
 * KV bytes are exact model arithmetic: one token stores a key and a
 * value vector per layer for the GQA key/value heads,
 *
 *   kvBytesPerToken = 2 * layers * numKvHeads * headDim * kBytesPerParam,
 *
 * and the pool hands them out in fixed-size token blocks
 * (PagedAttention-style), so reservations are block-rounded and
 * fragmentation is modelled as round-up waste rather than tracked
 * per page.
 */

#ifndef LAER_SERVE_KV_CACHE_HH
#define LAER_SERVE_KV_CACHE_HH

#include <cstdint>
#include <unordered_map>

#include "core/error.hh"
#include "core/types.hh"
#include "model/config.hh"
#include "model/memory.hh"

namespace laer
{

/**
 * KV-cache bytes one token occupies across all layers.
 * @param cfg  Model whose attention geometry sizes the cache.
 * @return 2 (K and V) * layers * numKvHeads * headDim * kBytesPerParam.
 */
Bytes kvBytesPerToken(const ModelConfig &cfg);

/**
 * How one device's HBM is carved up while serving. All fields are
 * per-device except `kvPoolTotal`, which aggregates the pool over the
 * cluster (the batch is data-parallel sharded, so the batcher draws
 * from the aggregate).
 */
struct ServingMemoryBudget
{
    ModelStateMemory modelState;  //!< resident weights (no grads/optim)
    Bytes activationReserve = 0;  //!< one step's live activations
    Bytes kvPoolPerDevice = 0;    //!< HBM left for KV on one device
    Bytes kvPoolTotal = 0;        //!< kvPoolPerDevice * numDevices

    /** Per-device bytes accounted for (state + activations + KV). */
    Bytes totalPerDevice() const
    {
        return modelState.total() + activationReserve + kvPoolPerDevice;
    }
};

/**
 * Derive the serving memory split for a cluster of `n_devices`
 * devices with `hbm_per_device` bytes of HBM each.
 *
 * The model state is the inference-time FSEP residency
 * (inferenceModelState); the activation reserve covers the live set of
 * `step_tokens_per_device` tokens through one layer (inference frees
 * activations layer by layer); everything left is the KV pool.
 *
 * @param cfg                     Model served.
 * @param n_devices               Cluster size N.
 * @param capacity                C, expert slots per device.
 * @param hbm_per_device          HBM bytes per device.
 * @param step_tokens_per_device  Scheduled tokens per device per step
 *                                (the batcher's tokenBudget / N).
 * @return the budget; throws FatalError when the model state and
 *         activation reserve leave no room for a KV pool.
 */
ServingMemoryBudget servingMemoryBudget(const ModelConfig &cfg,
                                        int n_devices, int capacity,
                                        Bytes hbm_per_device,
                                        TokenCount step_tokens_per_device);

/**
 * Block-granular KV reservation tracker. Sequences reserve bytes for
 * their context in `blockTokens`-token blocks; reservations only ever
 * grow (decode extends the context) until release. The pool never
 * over-commits: a grow() that does not fit is a programming error —
 * callers must check canGrow() and preempt to make room, which is
 * exactly what keeps reserved bytes <= budget across a whole run.
 */
class KvCachePool
{
  public:
    /**
     * @param budget_bytes     Total pool size across the cluster.
     * @param bytes_per_token  KV bytes per cached token.
     * @param block_tokens     Allocation granularity in tokens.
     */
    KvCachePool(Bytes budget_bytes, Bytes bytes_per_token,
                TokenCount block_tokens);

    /**
     * Block-rounded bytes a context of `context` tokens occupies.
     * @param context  Tokens cached (prompt + generated so far).
     * @return bytes of the ceil(context / blockTokens) blocks.
     */
    Bytes bytesFor(TokenCount context) const
    {
        LAER_CHECK(context >= 0, "negative context length");
        const TokenCount blocks =
            (context + blockTokens_ - 1) / blockTokens_;
        return blocks * blockTokens_ * bytesPerToken_;
    }

    /**
     * Would growing sequence `id` to cover `context` tokens fit?
     * Unknown ids are treated as a fresh reservation from zero.
     * @return true when the additional blocks fit the free pool.
     */
    bool canGrow(int id, TokenCount context) const;

    /**
     * Grow (or create) sequence `id`'s reservation to cover `context`
     * tokens. Shrinking is not supported; a no-op when the current
     * reservation already covers the context. Throws FatalError when
     * the growth does not fit — check canGrow() first.
     */
    void grow(int id, TokenCount context);

    /** Release sequence `id`'s reservation (no-op when untracked). */
    void release(int id);

    /** True while sequence `id` holds a reservation. */
    bool tracks(int id) const;

    /** Bytes currently reserved by sequence `id` (0 when untracked). */
    Bytes reservedOf(int id) const;

    /** Total pool size. */
    Bytes budgetBytes() const { return budget_; }

    /**
     * Re-point the pool at a new budget (device loss or repair). The
     * caller must first release/evict reservations below the new
     * budget when shrinking — the pool never over-commits. Throws
     * FatalError when reserved bytes exceed the new budget.
     */
    void setBudget(Bytes budget_bytes);

    /** Bytes reserved across all sequences; always <= budgetBytes(). */
    Bytes reservedBytes() const { return reserved_; }

    /** Bytes still available. */
    Bytes freeBytes() const { return budget_ - reserved_; }

    /** reservedBytes / budgetBytes, in [0, 1]. */
    double utilization() const;

    /** Number of sequences holding a reservation. */
    int sequences() const { return static_cast<int>(perSeq_.size()); }

    /** grow() calls that actually extended a reservation. */
    std::int64_t growOps() const { return growOps_; }

    /** release() calls that dropped a tracked reservation. */
    std::int64_t releaseOps() const { return releaseOps_; }

  private:
    Bytes budget_;
    Bytes bytesPerToken_;
    TokenCount blockTokens_;
    Bytes reserved_ = 0;
    std::int64_t growOps_ = 0;
    std::int64_t releaseOps_ = 0;
    std::unordered_map<int, Bytes> perSeq_;
};

} // namespace laer

#endif // LAER_SERVE_KV_CACHE_HH
