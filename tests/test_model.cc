/**
 * @file
 * Tests for model arithmetic: Tab. 2 reproduction, e16k4 invariants,
 * FLOP accounting and the Sec. 3.1 memory model.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "model/config.hh"
#include "model/memory.hh"

namespace laer
{
namespace
{

double
billions(std::int64_t v)
{
    return static_cast<double>(v) / 1e9;
}

/** Tab. 2 of the paper: name -> (layers, params B, activated B). */
struct Tab2Row
{
    const char *name;
    int layers;
    double params;
    double activs;
    int experts;
    int topk;
};

class Tab2Test : public ::testing::TestWithParam<Tab2Row>
{
};

TEST_P(Tab2Test, MatchesPaperWithinTwoPercent)
{
    const Tab2Row row = GetParam();
    const std::vector<ModelConfig> models = allEvaluatedModels();
    const auto it = std::find_if(
        models.begin(), models.end(),
        [&](const ModelConfig &m) { return m.name == row.name; });
    ASSERT_NE(it, models.end()) << row.name;
    const ModelConfig &cfg = *it;
    cfg.validate();
    EXPECT_EQ(cfg.layers, row.layers);
    EXPECT_EQ(cfg.numExperts, row.experts);
    EXPECT_EQ(cfg.topK, row.topk);
    EXPECT_NEAR(billions(cfg.totalParams()), row.params,
                0.02 * row.params)
        << cfg.name;
    EXPECT_NEAR(billions(cfg.activatedParams()), row.activs,
                0.02 * row.activs)
        << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Tab2Test,
    ::testing::Values(
        Tab2Row{"mixtral-8x7b-e8k2", 32, 46.70, 12.88, 8, 2},
        Tab2Row{"mixtral-8x22b-e8k2", 18, 45.46, 12.86, 8, 2},
        Tab2Row{"qwen-8x7b-e8k2", 32, 46.69, 12.88, 8, 2},
        Tab2Row{"mixtral-8x7b-e16k4", 24, 35.09, 9.73, 16, 4},
        Tab2Row{"mixtral-8x22b-e16k4", 14, 35.46, 10.09, 16, 4},
        Tab2Row{"qwen-8x7b-e16k4", 24, 35.09, 9.73, 16, 4}),
    [](const auto &info) {
        std::string s = info.param.name;
        for (auto &ch : s)
            if (ch == '-')
                ch = '_';
        return s;
    });

TEST(ModelConfig, E16K4KeepsPerLayerParamsAndCompute)
{
    // The paper constructs e16k4 "without altering the parameter count
    // and computational load per layer".
    const ModelConfig a = mixtral8x7bE8K2();
    const ModelConfig b = mixtral8x7bE16K4();
    EXPECT_EQ(a.expertParamsPerLayer(), b.expertParamsPerLayer());
    EXPECT_DOUBLE_EQ(a.topK * a.expertFlopsPerToken(),
                     b.topK * b.expertFlopsPerToken());
}

TEST(ModelConfig, ExpertParamsIsSwiGlu)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_EQ(cfg.expertParams(), 3LL * 4096 * 14336);
    EXPECT_EQ(cfg.expertParamBytes(), cfg.expertParams() * 2);
}

TEST(ModelConfig, ExpertFlopsMatchTwoFlopsPerWeight)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_DOUBLE_EQ(cfg.expertFlopsPerToken(),
                     2.0 * cfg.expertParams());
}

TEST(ModelConfig, AttnFlopsGrowWithContext)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_GT(cfg.attnFlopsPerToken(8192), cfg.attnFlopsPerToken(2048));
}

TEST(ModelConfig, TokenBytesIsHiddenTimesPrecision)
{
    EXPECT_EQ(mixtral8x7bE8K2().tokenBytes(), 4096 * 2);
}

TEST(ModelConfig, QwenDiffersOnlyByBias)
{
    const ModelConfig m = mixtral8x7bE8K2();
    const ModelConfig q = qwen8x7bE8K2();
    EXPECT_GT(q.totalParams(), 0);
    EXPECT_EQ(q.expertParamsPerLayer(), m.expertParamsPerLayer());
    EXPECT_GT(q.nonExpertParamsPerLayer(),
              m.nonExpertParamsPerLayer());
}

TEST(ModelConfig, ValidateRejectsBadShapes)
{
    ModelConfig cfg = mixtral8x7bE8K2();
    cfg.topK = 99;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = mixtral8x7bE8K2();
    cfg.numHeads = 30; // not divisible by kv heads
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Memory, FsepAddsExactlyTwoCExpertBuffers)
{
    // Sec. 3.1: "our method incurs only an additional 2*C*Psi_expert
    // in memory overhead ... from parameter and gradient states".
    const ModelConfig cfg = mixtral8x7bE8K2();
    const auto fsep = fsepModelState(cfg, 32, 2);
    const auto fsdp = fsdpEpModelState(cfg, 32, 2);
    EXPECT_EQ(fsep.optimizerState, fsdp.optimizerState);
    const Bytes delta_param = fsep.paramState - fsdp.paramState;
    const Bytes delta_grad = fsep.gradState - fsdp.gradState;
    EXPECT_EQ(delta_param, 2LL * cfg.expertParamBytes());
    EXPECT_EQ(delta_grad, 2LL * cfg.expertParamBytes());
}

TEST(Memory, FullShardingScalesWithDeviceCount)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    const auto small = fsepModelState(cfg, 8, 2);
    const auto large = fsepModelState(cfg, 64, 2);
    EXPECT_GT(small.optimizerState, large.optimizerState);
    EXPECT_EQ(small.optimizerState,
              cfg.totalParams() * kOptimizerBytesPerParam / 8);
}

TEST(Memory, MegatronKeepsWholeExpertsResident)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    const auto mega = megatronModelState(cfg, 32, 4, 4);
    const auto fsdp = fsdpEpModelState(cfg, 32, 2);
    // Megatron's resident parameter state dwarfs fully sharded.
    EXPECT_GT(mega.paramState, 4 * fsdp.paramState);
}

TEST(Memory, MegatronValidatesDegrees)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_THROW(megatronModelState(cfg, 32, 3, 4), FatalError);
    EXPECT_THROW(megatronModelState(cfg, 30, 4, 4), FatalError);
}

TEST(Memory, CheckpointingShrinksActivations)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    EXPECT_LT(activationBytesPerToken(cfg, true),
              activationBytesPerToken(cfg, false) / 10);
}

TEST(Memory, MicroBatchFitsWithinHbm)
{
    const ModelConfig cfg = mixtral8x7bE8K2();
    const auto state = fsepModelState(cfg, 32, 2);
    const Bytes hbm = 80LL * 1000 * 1000 * 1000;
    const TokenCount s = maxMicroBatchTokens(cfg, state, hbm, true);
    EXPECT_GT(s, 16384); // the paper's S=16K must fit
    EXPECT_EQ(s % 1024, 0);
    // An impossible budget yields zero.
    EXPECT_EQ(maxMicroBatchTokens(cfg, state, state.total() - 1, true),
              0);
}

} // namespace
} // namespace laer
