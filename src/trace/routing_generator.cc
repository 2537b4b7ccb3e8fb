#include "trace/routing_generator.hh"

#include <algorithm>
#include <cmath>

#include "core/error.hh"

namespace laer
{

RoutingModel
RoutingModel::wikitext(int n_devices, int n_experts, int top_k,
                       TokenCount tokens_per_device)
{
    RoutingModel m;
    m.numDevices = n_devices;
    m.numExperts = n_experts;
    m.topK = top_k;
    m.tokensPerDevice = tokens_per_device;
    m.skew = 0.75;
    m.drift = 0.985;
    m.deviceJitter = 0.15;
    return m;
}

RoutingModel
RoutingModel::c4(int n_devices, int n_experts, int top_k,
                 TokenCount tokens_per_device)
{
    RoutingModel m;
    m.numDevices = n_devices;
    m.numExperts = n_experts;
    m.topK = top_k;
    m.tokensPerDevice = tokens_per_device;
    m.skew = 0.55;
    m.drift = 0.95;
    m.deviceJitter = 0.25;
    return m;
}

RoutingGenerator::RoutingGenerator(const RoutingModel &model)
    : model_(model), rng_(model.seed)
{
    LAER_CHECK(model_.numDevices > 0 && model_.numExperts > 0,
               "routing generator needs devices and experts");
    LAER_CHECK(model_.topK >= 1 && model_.topK <= model_.numExperts,
               "top-k out of range");
    LAER_CHECK(model_.drift >= 0.0 && model_.drift < 1.0,
               "drift must be in [0, 1)");
    // Initialise logits at the stationary distribution of the AR(1)
    // process so iteration 0 is already representative.
    logits_.resize(model_.numExperts);
    for (auto &l : logits_)
        l = rng_.gaussian(0.0, model_.skew);
}

std::vector<double>
RoutingGenerator::popularity() const
{
    std::vector<double> p(logits_.size());
    double max_logit = logits_[0];
    for (double l : logits_)
        max_logit = std::max(max_logit, l);
    double sum = 0.0;
    for (std::size_t i = 0; i < logits_.size(); ++i) {
        p[i] = std::exp(logits_[i] - max_logit);
        sum += p[i];
    }
    for (auto &v : p)
        v /= sum;
    return p;
}

RoutingMatrix
RoutingGenerator::next()
{
    return nextForTokens(std::vector<TokenCount>(
        model_.numDevices, model_.tokensPerDevice));
}

RoutingMatrix
RoutingGenerator::nextForTokens(const std::vector<TokenCount> &tokens)
{
    LAER_CHECK(static_cast<int>(tokens.size()) == model_.numDevices,
               "token vector must have one entry per device");
    // AR(1) logit evolution with stationary std = skew:
    //   l <- drift * l + sqrt(1 - drift^2) * skew * noise
    const double rho = model_.drift;
    const double sigma = std::sqrt(1.0 - rho * rho) * model_.skew;
    for (auto &l : logits_)
        l = rho * l + rng_.gaussian(0.0, sigma);

    // Auxiliary-loss feedback: shrink logits toward 0 (uniform
    // routing). The rate is calibrated so weight 1e-2 balances within
    // ~10^2 iterations (paper Fig. 2) while 1e-4 damps mildly.
    if (model_.auxLossWeight > 0.0) {
        const double shrink =
            std::exp(-300.0 * model_.auxLossWeight);
        for (auto &l : logits_)
            l *= shrink;
    }

    // Per-device jitter: a Dirichlet around the global popularity with
    // these concentrations, shared by every device of the call.
    const std::vector<double> global = popularity();
    const TokenCount urn_bound = kUrnTokensPerExpert * model_.numExperts;
    alphas_.resize(global.size());
    alphaPrefix_.resize(global.size());
    urn_.reserve(static_cast<std::size_t>(urn_bound));
    const double conc = 1.0 / std::max(1e-6, model_.deviceJitter);
    double alpha_sum = 0.0;
    for (std::size_t j = 0; j < global.size(); ++j) {
        alphas_[j] = std::max(1e-3, global[j] * conc *
                                        static_cast<double>(
                                            model_.numExperts));
        alphaPrefix_[j] = (alpha_sum += alphas_[j]);
    }

    RoutingMatrix routing(model_.numDevices, model_.numExperts);
    for (DeviceId d = 0; d < model_.numDevices; ++d) {
        const TokenCount routed =
            tokens[d] * static_cast<TokenCount>(model_.topK);
        if (routed <= 0)
            continue;
        if (routed <= urn_bound) {
            drawUrnRow(d, routed, routing);
            continue;
        }
        rng_.dirichlet(alphas_, local_);
        rng_.multinomial(routed, local_, counts_);
        for (ExpertId j = 0; j < model_.numExperts; ++j)
            routing.at(d, j) = counts_[j];
    }
    return routing;
}

void
RoutingGenerator::drawUrnRow(DeviceId d, TokenCount routed,
                             RoutingMatrix &routing)
{
    // Token t joins expert j with probability (alpha_j + c_j) /
    // (A + t), where c_j counts the earlier tokens at j: exactly the
    // Dirichlet-multinomial. One uniform u in [0, A + t) decides it:
    // below A it draws from the prior by searching the alpha prefix
    // sums, above it names an earlier token whose expert t copies. The
    // clamps catch a product rounded up to the interval's end.
    const double alpha_sum = alphaPrefix_.back();
    const ExpertId last = model_.numExperts - 1;
    urn_.clear();
    for (TokenCount t = 0; t < routed; ++t) {
        const double u =
            rng_.uniform() * (alpha_sum + static_cast<double>(t));
        ExpertId j;
        if (t == 0 || u < alpha_sum) {
            j = static_cast<ExpertId>(
                std::upper_bound(alphaPrefix_.begin(), alphaPrefix_.end(),
                                 u) -
                alphaPrefix_.begin());
            j = std::min(j, last);
        } else {
            const TokenCount prev = std::min(
                t - 1, static_cast<TokenCount>(u - alpha_sum));
            j = urn_[static_cast<std::size_t>(prev)];
        }
        urn_.push_back(j);
        ++routing.at(d, j);
    }
}

} // namespace laer
