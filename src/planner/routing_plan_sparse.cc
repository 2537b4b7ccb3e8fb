#include "planner/routing_plan_sparse.hh"

#include "core/error.hh"

namespace laer
{

void
RoutingPlanSparse::clear(int n_devices, int n_experts)
{
    LAER_CHECK(n_devices > 0 && n_experts > 0, "empty routing plan");
    numDevices_ = n_devices;
    numExperts_ = n_experts;
    curRow_ = -1;
    rowOff_.assign(static_cast<std::size_t>(n_devices), 0);
    entries_.clear();
}

void
RoutingPlanSparse::add(DeviceId rank, ExpertId expert, DeviceId dst,
                       TokenCount tokens)
{
    LAER_ASSERT(rank >= 0 && rank < numDevices_ && expert >= 0 &&
                    expert < numExperts_ && dst >= 0 &&
                    dst < numDevices_,
                "sparse plan index out of range");
    LAER_ASSERT(rank >= curRow_,
                "sparse plan rows must be appended in rank order");
    // Ranks skipped since the last append have empty rows starting
    // (and ending) at the current entry count.
    for (int r = curRow_ + 1; r <= rank; ++r)
        rowOff_[static_cast<std::size_t>(r)] = entries_.size();
    curRow_ = rank;
    entries_.push_back({expert, dst, tokens});
}

const RoutingPlanSparse::Entry *
RoutingPlanSparse::row(DeviceId rank, std::size_t &count) const
{
    LAER_ASSERT(rank >= 0 && rank < numDevices_, "bad rank");
    if (rank > curRow_) {
        count = 0;
        return entries_.data() + entries_.size();
    }
    const std::size_t begin = rowOff_[static_cast<std::size_t>(rank)];
    const std::size_t end =
        rank == curRow_ ? entries_.size()
                        : rowOff_[static_cast<std::size_t>(rank) + 1];
    count = end - begin;
    return entries_.data() + begin;
}

RoutingPlan
RoutingPlanSparse::toDense() const
{
    RoutingPlan dense(numDevices_, numExperts_);
    for (DeviceId i = 0; i < numDevices_; ++i) {
        std::size_t count = 0;
        const Entry *entries = row(i, count);
        for (std::size_t t = 0; t < count; ++t)
            dense.at(i, entries[t].expert, entries[t].dst) +=
                entries[t].tokens;
    }
    return dense;
}

RoutingPlanSparse
RoutingPlanSparse::fromDense(const RoutingPlan &dense)
{
    RoutingPlanSparse sparse(dense.numDevices(), dense.numExperts());
    for (DeviceId i = 0; i < dense.numDevices(); ++i)
        for (ExpertId j = 0; j < dense.numExperts(); ++j)
            for (DeviceId k = 0; k < dense.numDevices(); ++k) {
                const TokenCount t = dense.at(i, j, k);
                if (t != 0)
                    sparse.add(i, j, k, t);
            }
    return sparse;
}

std::vector<TokenCount>
RoutingPlanSparse::receivedTokens() const
{
    std::vector<TokenCount> recv;
    receivedTokens(recv);
    return recv;
}

void
RoutingPlanSparse::receivedTokens(std::vector<TokenCount> &out) const
{
    out.assign(static_cast<std::size_t>(numDevices_), 0);
    for (const Entry &e : entries_)
        out[static_cast<std::size_t>(e.dst)] += e.tokens;
}

void
RoutingPlanSparse::portLoads(const Cluster &cluster,
                             Bytes bytes_per_token,
                             A2aPortLoads &out) const
{
    LAER_ASSERT(cluster.numDevices() == numDevices_,
                "cluster does not match plan");
    out.reset(numDevices_);
    for (DeviceId i = 0; i < numDevices_; ++i) {
        std::size_t count = 0;
        const Entry *entries = row(i, count);
        for (std::size_t t = 0; t < count; ++t) {
            // Local tokens never touch the wire.
            if (entries[t].dst != i)
                out.add(cluster, i, entries[t].dst,
                        entries[t].tokens * bytes_per_token);
        }
    }
}

VolumeMatrix
RoutingPlanSparse::dispatchVolume(Bytes bytes_per_token) const
{
    VolumeMatrix volume = zeroVolume(numDevices_);
    for (DeviceId i = 0; i < numDevices_; ++i) {
        std::size_t count = 0;
        const Entry *entries = row(i, count);
        for (std::size_t t = 0; t < count; ++t)
            volume[static_cast<std::size_t>(i)]
                  [static_cast<std::size_t>(entries[t].dst)] +=
                entries[t].tokens * bytes_per_token;
    }
    return volume;
}

void
liteRoutingSparse(const Cluster &cluster, const RoutingMatrix &routing,
                  const ReplicaIndex &index, RoutingPlanSparse &plan)
{
    const int n = routing.numDevices();
    const int e = routing.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match routing matrix");
    LAER_ASSERT(index.numExperts() == e,
                "index does not match routing matrix");
    plan.clear(n, e);
    for (DeviceId rank = 0; rank < n; ++rank) {
        const NodeId my_node = cluster.node(rank);
        for (ExpertId j = 0; j < e; ++j) {
            const TokenCount tokens = routing.at(rank, j);
            if (tokens == 0)
                continue;
            std::size_t count = 0;
            const DeviceId *targets =
                index.targets(my_node, j, count);
            LAER_CHECK(count > 0,
                       "expert " << j << " has no replica anywhere");
            forEachLiteShare(targets, count, rank, tokens,
                             [&](DeviceId k, TokenCount share) {
                                 plan.add(rank, j, k, share);
                             });
        }
    }
}

} // namespace laer
