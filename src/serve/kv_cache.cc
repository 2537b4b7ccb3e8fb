#include "serve/kv_cache.hh"

#include "core/error.hh"

namespace laer
{

Bytes
kvBytesPerToken(const ModelConfig &cfg)
{
    return 2LL * cfg.layers * cfg.numKvHeads * cfg.headDim *
           kBytesPerParam;
}

ServingMemoryBudget
servingMemoryBudget(const ModelConfig &cfg, int n_devices, int capacity,
                    Bytes hbm_per_device,
                    TokenCount step_tokens_per_device)
{
    LAER_CHECK(n_devices >= 1, "need at least one device");
    LAER_CHECK(hbm_per_device > 0, "HBM budget must be positive");
    LAER_CHECK(step_tokens_per_device >= 1,
               "step token share must be positive");

    ServingMemoryBudget budget;
    budget.modelState = inferenceModelState(cfg, n_devices, capacity);
    // Inference frees activations layer by layer, so the live set is
    // one layer's share of the training-mode per-token estimate.
    budget.activationReserve =
        step_tokens_per_device *
        (activationBytesPerToken(cfg, false) / cfg.layers);

    const Bytes used =
        budget.modelState.total() + budget.activationReserve;
    LAER_CHECK(used < hbm_per_device,
               "HBM budget ("
                   << hbm_per_device << " B/device) leaves no KV pool: "
                   << "model state + activations need " << used
                   << " B/device");
    budget.kvPoolPerDevice = hbm_per_device - used;
    budget.kvPoolTotal = budget.kvPoolPerDevice * n_devices;
    return budget;
}

KvCachePool::KvCachePool(Bytes budget_bytes, Bytes bytes_per_token,
                         TokenCount block_tokens)
    : budget_(budget_bytes), bytesPerToken_(bytes_per_token),
      blockTokens_(block_tokens)
{
    LAER_CHECK(budget_ > 0, "KV budget must be positive");
    LAER_CHECK(bytesPerToken_ > 0, "KV bytes per token must be positive");
    LAER_CHECK(blockTokens_ >= 1, "KV block must hold at least one token");
}

bool
KvCachePool::canGrow(int id, TokenCount context) const
{
    const Bytes target = bytesFor(context);
    const Bytes held = reservedOf(id);
    return target <= held || target - held <= freeBytes();
}

void
KvCachePool::grow(int id, TokenCount context)
{
    const Bytes target = bytesFor(context);
    auto [it, inserted] = perSeq_.try_emplace(id, 0);
    if (target <= it->second)
        return; // reservation already covers the context
    const Bytes delta = target - it->second;
    LAER_CHECK(delta <= freeBytes(),
               "KV pool over-commit: sequence " << id << " needs "
                   << delta << " B but only " << freeBytes()
                   << " B are free");
    it->second = target;
    reserved_ += delta;
    ++growOps_;
}

void
KvCachePool::setBudget(Bytes budget_bytes)
{
    LAER_CHECK(budget_bytes > 0, "KV budget must be positive");
    LAER_CHECK(reserved_ <= budget_bytes,
               "KV pool shrink below reserved bytes: " << reserved_
                   << " B reserved, new budget " << budget_bytes
                   << " B — evict first");
    budget_ = budget_bytes;
}

void
KvCachePool::release(int id)
{
    const auto it = perSeq_.find(id);
    if (it == perSeq_.end())
        return;
    reserved_ -= it->second;
    perSeq_.erase(it);
    ++releaseOps_;
}

bool
KvCachePool::tracks(int id) const
{
    return perSeq_.count(id) != 0;
}

Bytes
KvCachePool::reservedOf(int id) const
{
    const auto it = perSeq_.find(id);
    return it == perSeq_.end() ? 0 : it->second;
}

double
KvCachePool::utilization() const
{
    return static_cast<double>(reserved_) / static_cast<double>(budget_);
}

} // namespace laer
