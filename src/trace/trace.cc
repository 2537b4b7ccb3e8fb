#include "trace/trace.hh"

#include <algorithm>
#include <vector>

#include "core/error.hh"

namespace laer
{

LoadSnapshot
summarizeRouting(const RoutingMatrix &routing)
{
    LoadSnapshot snap;
    const std::vector<TokenCount> loads = routing.expertLoads();
    snap.totalTokens = routing.totalTokens();
    if (snap.totalTokens == 0)
        return snap;
    TokenCount max_load = 0;
    for (TokenCount l : loads)
        max_load = std::max(max_load, l);
    snap.maxExpertShare = static_cast<double>(max_load) /
                          static_cast<double>(snap.totalTokens);
    const double mean_load = static_cast<double>(snap.totalTokens) /
                             static_cast<double>(loads.size());
    snap.imbalance = static_cast<double>(max_load) / mean_load;
    return snap;
}

RoutingTrace::RoutingTrace(int iterations, int layers)
    : data_(iterations, std::vector<RoutingMatrix>(layers))
{
    LAER_CHECK(iterations > 0 && layers > 0, "empty trace shape");
}

int
RoutingTrace::layers() const
{
    return data_.empty() ? 0 : static_cast<int>(data_.front().size());
}

void
RoutingTrace::set(int iteration, int layer, RoutingMatrix routing)
{
    LAER_ASSERT(iteration >= 0 && iteration < iterations() &&
                layer >= 0 && layer < layers(),
                "trace index out of range");
    data_[iteration][layer] = std::move(routing);
}

const RoutingMatrix &
RoutingTrace::at(int iteration, int layer) const
{
    LAER_ASSERT(iteration >= 0 && iteration < iterations() &&
                layer >= 0 && layer < layers(),
                "trace index out of range");
    return data_[iteration][layer];
}

RoutingTrace
RoutingTrace::rescaleDevices(int new_devices) const
{
    LAER_CHECK(new_devices > 0, "need a positive device count");
    LAER_CHECK(iterations() > 0, "cannot rescale an empty trace");
    RoutingTrace out(iterations(), layers());
    for (int it = 0; it < iterations(); ++it) {
        for (int ly = 0; ly < layers(); ++ly) {
            const RoutingMatrix &src = data_[it][ly];
            const int e = src.numExperts();
            RoutingMatrix dst(new_devices, e);
            // Keep per-device token budget constant: each new device
            // routes (old per-device average) tokens, split over
            // experts by the iteration's global load distribution,
            // with deterministic remainder spreading.
            const std::vector<TokenCount> loads = src.expertLoads();
            const TokenCount total = src.totalTokens();
            if (total == 0) {
                out.set(it, ly, std::move(dst));
                continue;
            }
            const TokenCount per_device =
                total / src.numDevices();
            for (DeviceId d = 0; d < new_devices; ++d) {
                TokenCount assigned = 0;
                for (ExpertId j = 0; j < e; ++j) {
                    const TokenCount share =
                        per_device * loads[j] / total;
                    dst.at(d, j) = share;
                    assigned += share;
                }
                // Spread the rounding deficit over the heaviest
                // experts, rotating the start by device id.
                TokenCount deficit = per_device - assigned;
                ExpertId j = static_cast<ExpertId>(d % e);
                while (deficit > 0) {
                    ++dst.at(d, j);
                    --deficit;
                    j = (j + 1) % e;
                }
            }
            out.set(it, ly, std::move(dst));
        }
    }
    return out;
}

} // namespace laer
