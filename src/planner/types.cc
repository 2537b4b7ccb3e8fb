#include "planner/types.hh"

#include <algorithm>

namespace laer
{

RoutingMatrix::RoutingMatrix(int n_devices, int n_experts)
    : numDevices_(n_devices), numExperts_(n_experts),
      data_(static_cast<std::size_t>(n_devices) * n_experts, 0)
{
    LAER_CHECK(n_devices > 0 && n_experts > 0, "empty routing matrix");
}

void
RoutingMatrix::accumulate(const RoutingMatrix &other)
{
    LAER_ASSERT(other.numDevices_ == numDevices_ &&
                    other.numExperts_ == numExperts_,
                "routing matrix shapes differ");
    for (std::size_t c = 0; c < data_.size(); ++c)
        data_[c] += other.data_[c];
}

void
RoutingMatrix::clear()
{
    std::fill(data_.begin(), data_.end(), 0);
}

std::vector<TokenCount>
RoutingMatrix::expertLoads() const
{
    std::vector<TokenCount> loads(numExperts_, 0);
    for (DeviceId i = 0; i < numDevices_; ++i)
        for (ExpertId j = 0; j < numExperts_; ++j)
            loads[j] += at(i, j);
    return loads;
}

std::vector<TokenCount>
RoutingMatrix::deviceTokens() const
{
    std::vector<TokenCount> tokens(numDevices_, 0);
    for (DeviceId i = 0; i < numDevices_; ++i)
        for (ExpertId j = 0; j < numExperts_; ++j)
            tokens[i] += at(i, j);
    return tokens;
}

TokenCount
RoutingMatrix::totalTokens() const
{
    TokenCount total = 0;
    for (TokenCount v : data_)
        total += v;
    return total;
}

ExpertLayout::ExpertLayout(int n_devices, int n_experts)
    : numDevices_(n_devices), numExperts_(n_experts),
      data_(static_cast<std::size_t>(n_devices) * n_experts, 0)
{
    LAER_CHECK(n_devices > 0 && n_experts > 0, "empty layout");
}

std::vector<DeviceId>
ExpertLayout::replicaDevices(ExpertId e) const
{
    std::vector<DeviceId> devs;
    for (DeviceId d = 0; d < numDevices_; ++d)
        if (at(d, e) > 0)
            devs.push_back(d);
    return devs;
}

int
ExpertLayout::replicaCount(ExpertId e) const
{
    int count = 0;
    for (DeviceId d = 0; d < numDevices_; ++d)
        count += at(d, e);
    return count;
}

int
ExpertLayout::slotsUsed(DeviceId d) const
{
    int count = 0;
    for (ExpertId e = 0; e < numExperts_; ++e)
        count += at(d, e);
    return count;
}

bool
ExpertLayout::feasible(int capacity) const
{
    for (DeviceId d = 0; d < numDevices_; ++d)
        if (slotsUsed(d) != capacity)
            return false;
    for (ExpertId e = 0; e < numExperts_; ++e)
        if (replicaCount(e) < 1)
            return false;
    return true;
}

void
ReplicaIndex::rebuild(const Cluster &cluster, const ExpertLayout &layout)
{
    const int n = layout.numDevices();
    const int e = layout.numExperts();
    LAER_ASSERT(cluster.numDevices() == n,
                "cluster does not match layout");
    numDevices_ = n;
    numExperts_ = e;
    numNodes_ = cluster.numNodes();

    // Counting pass over the layout's non-zero cells.
    off_.assign(static_cast<std::size_t>(e) * numNodes_ + 1, 0);
    for (DeviceId d = 0; d < n; ++d) {
        const NodeId m = cluster.node(d);
        for (ExpertId j = 0; j < e; ++j)
            off_[cell(j, m) + 1] += static_cast<std::size_t>(layout.at(d, j));
    }
    for (std::size_t c = 0; c + 1 < off_.size(); ++c)
        off_[c + 1] += off_[c];

    // Fill pass. Devices are visited in ascending order, so every list
    // comes out device-ascending with multiplicity — the order Alg. 3
    // defines its remainder rotation over.
    dev_.resize(off_.back());
    std::vector<std::size_t> fill(off_.begin(), off_.end() - 1);
    for (DeviceId d = 0; d < n; ++d) {
        const NodeId m = cluster.node(d);
        for (ExpertId j = 0; j < e; ++j)
            for (int r = 0; r < layout.at(d, j); ++r)
                dev_[fill[cell(j, m)]++] = d;
    }
}

ExpertLayout
ReplicaIndex::layout() const
{
    ExpertLayout a(numDevices_, numExperts_);
    for (ExpertId j = 0; j < numExperts_; ++j) {
        const DeviceId *d = all(j);
        for (const DeviceId *end = d + allCount(j); d != end; ++d)
            ++a.at(*d, j);
    }
    return a;
}

RoutingPlan::RoutingPlan(int n_devices, int n_experts)
    : numDevices_(n_devices), numExperts_(n_experts),
      data_(static_cast<std::size_t>(n_devices) * n_experts * n_devices, 0)
{
    LAER_CHECK(n_devices > 0 && n_experts > 0, "empty routing plan");
}

std::size_t
RoutingPlan::index(DeviceId i, ExpertId j, DeviceId k) const
{
    LAER_ASSERT(i >= 0 && i < numDevices_ && j >= 0 && j < numExperts_ &&
                k >= 0 && k < numDevices_,
                "plan index out of range");
    return (static_cast<std::size_t>(i) * numExperts_ + j) * numDevices_ +
           k;
}

TokenCount &
RoutingPlan::at(DeviceId i, ExpertId j, DeviceId k)
{
    return data_[index(i, j, k)];
}

TokenCount
RoutingPlan::at(DeviceId i, ExpertId j, DeviceId k) const
{
    return data_[index(i, j, k)];
}

} // namespace laer
