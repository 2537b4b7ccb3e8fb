#include "planner/types.hh"

#include "core/error.hh"

namespace laer
{

RoutingMatrix::RoutingMatrix(int n_devices, int n_experts)
    : numDevices_(n_devices), numExperts_(n_experts),
      data_(static_cast<std::size_t>(n_devices) * n_experts, 0)
{
    LAER_CHECK(n_devices > 0 && n_experts > 0, "empty routing matrix");
}

TokenCount &
RoutingMatrix::at(DeviceId i, ExpertId j)
{
    LAER_ASSERT(i >= 0 && i < numDevices_ && j >= 0 && j < numExperts_,
                "routing index out of range");
    return data_[static_cast<std::size_t>(i) * numExperts_ + j];
}

TokenCount
RoutingMatrix::at(DeviceId i, ExpertId j) const
{
    LAER_ASSERT(i >= 0 && i < numDevices_ && j >= 0 && j < numExperts_,
                "routing index out of range");
    return data_[static_cast<std::size_t>(i) * numExperts_ + j];
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

int &
ExpertLayout::at(DeviceId d, ExpertId e)
{
    LAER_ASSERT(d >= 0 && d < numDevices_ && e >= 0 && e < numExperts_,
                "layout index out of range");
    return data_[static_cast<std::size_t>(d) * numExperts_ + e];
}

int
ExpertLayout::at(DeviceId d, ExpertId e) const
{
    LAER_ASSERT(d >= 0 && d < numDevices_ && e >= 0 && e < numExperts_,
                "layout index out of range");
    return data_[static_cast<std::size_t>(d) * numExperts_ + e];
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
