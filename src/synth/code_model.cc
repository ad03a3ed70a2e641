#include "code_model.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace gaas::synth
{

namespace
{

/** Maximum structure items per sequence, to bound build recursion. */
constexpr unsigned kMaxSeqItems = 64;

/** Words charged against the budget for call/return glue. */
constexpr std::uint64_t kCallGlueWords = 2;

/** Maximum walker call depth (the call graph is acyclic, but deep
 *  chains still cost stack frames). */
constexpr std::size_t kMaxCallDepth = 64;

} // namespace

CodeModel::CodeModel(const CodeParams &params_, std::uint64_t seed_)
    : params(params_), seed(seed_), buildRng(seed_ ^ 0xc0de),
      walkRng(seed_ ^ 0x3a1c)
{
    if (params.procCount == 0)
        gaas_fatal("CodeModel requires at least one procedure");
    if (params.codeWords < params.procCount * 8) {
        gaas_fatal("CodeModel codeWords (", params.codeWords,
                   ") too small for ", params.procCount,
                   " procedures");
    }
    if (params.meanRunLen < 1.0)
        gaas_fatal("CodeModel meanRunLen must be >= 1");

    procs.resize(params.procCount);

    // Divide the code budget among procedures: random proportions
    // with a floor so every procedure has some body.
    const std::uint64_t floor_words = 8;
    std::vector<double> weights(params.procCount);
    double weight_sum = 0.0;
    for (auto &w : weights) {
        w = 0.25 + buildRng.nextDouble();
        weight_sum += w;
    }
    const std::uint64_t distributable =
        params.codeWords - floor_words * params.procCount;

    // Build bodies from the last procedure backwards so calls can
    // target already-sized higher-id procedures (acyclic call graph:
    // procedure i only calls j > i, so recursion never occurs).
    std::vector<std::uint64_t> budgets(params.procCount);
    for (unsigned i = 0; i < params.procCount; ++i) {
        budgets[i] = floor_words +
                     static_cast<std::uint64_t>(
                         static_cast<double>(distributable) *
                         weights[i] / weight_sum);
    }
    std::unordered_map<double, GeometricSampler> iters;
    for (unsigned i = 0; i < params.procCount; ++i) {
        std::uint64_t budget = budgets[i];
        procs[i].body = buildSeq(i, 0, budget, iters);
    }

    // Lay out procedure text back to back from the text base, word
    // granular, with a small pad between procedures.  A per-program
    // page-granular offset keeps different benchmarks' hot code from
    // landing on identical page colours (and hence identical
    // physically-indexed cache sets) the way identical layouts
    // would.
    Addr next_base = layout::kTextBase +
                     static_cast<Addr>(buildRng.nextBounded(64)) *
                         kPageBytes;
    for (auto &proc : procs) {
        proc.base = next_base;
        proc.sizeWords = layoutProc(proc, 0, proc.body);
        if (proc.sizeWords == 0)
            proc.sizeWords = 1;
        totalWords += proc.sizeWords;
        next_base += wordsToBytes(proc.sizeWords + 2);
    }

    // Fisher-Yates shuffle of the jump-popularity order.
    jumpOrder.resize(params.procCount);
    for (unsigned i = 0; i < params.procCount; ++i)
        jumpOrder[i] = i;
    for (unsigned i = params.procCount - 1; i > 0; --i) {
        const auto j =
            static_cast<unsigned>(buildRng.nextBounded(i + 1));
        std::swap(jumpOrder[i], jumpOrder[j]);
    }

    jumpPareto = ParetoSampler(params.jumpZipfAlpha, procs.size());

    startWalk();
}

std::vector<std::uint32_t>
CodeModel::buildSeq(
    std::uint32_t proc_id, unsigned depth, std::uint64_t &budget_words,
    std::unordered_map<double, GeometricSampler> &iters)
{
    std::vector<std::uint32_t> seq;
    const bool can_call = proc_id + 1 < params.procCount;

    while (budget_words > 0 && seq.size() < kMaxSeqItems) {
        const double r = buildRng.nextDouble();
        if (depth < params.maxLoopDepth && r < params.loopProb &&
            budget_words >= 4) {
            // Give the loop a random share of the remaining budget.
            std::uint64_t share =
                2 + buildRng.nextBounded(budget_words / 2 + 1);
            std::uint64_t child_budget = std::min(share, budget_words);
            budget_words -= child_budget;
            Node node;
            node.kind = NodeKind::Loop;
            // Deterministic build: use buildRng, not walkRng (the
            // walk stream must replay identically after reset()).
            const double mean = 1.0 + static_cast<double>(
                buildRng.nextGeometric(params.meanLoopIters));
            auto it = iters.find(mean);
            if (it == iters.end())
                it = iters.emplace(mean, GeometricSampler(mean)).first;
            node.iters = it->second;
            node.children =
                buildSeq(proc_id, depth + 1, child_budget, iters);
            budget_words += child_budget; // return unused share
            if (node.children.empty())
                continue;
            nodes.push_back(std::move(node));
            seq.push_back(static_cast<std::uint32_t>(nodes.size() - 1));
        } else if (can_call && r < params.loopProb + params.callProb &&
                   budget_words >= kCallGlueWords) {
            Node node;
            node.kind = NodeKind::Call;
            // Zipf-skewed callee choice among higher-id procedures:
            // nearby (low rank) procedures are the hot ones.
            const std::uint64_t span =
                params.procCount - proc_id - 1;
            const std::uint64_t rank = buildRng.nextParetoIndex(
                params.callZipfAlpha, span);
            node.callee = proc_id + 1 + static_cast<std::uint32_t>(rank);
            nodes.push_back(std::move(node));
            seq.push_back(static_cast<std::uint32_t>(nodes.size() - 1));
            budget_words -= kCallGlueWords;
        } else {
            Node node;
            node.kind = NodeKind::Run;
            std::uint64_t len =
                buildRng.nextGeometric(params.meanRunLen);
            len = std::min<std::uint64_t>(len, budget_words);
            node.runLen = static_cast<std::uint32_t>(std::max<
                std::uint64_t>(len, 1));
            budget_words -= std::min<std::uint64_t>(node.runLen,
                                                    budget_words);
            nodes.push_back(std::move(node));
            seq.push_back(static_cast<std::uint32_t>(nodes.size() - 1));
        }
    }
    return seq;
}

std::uint32_t
CodeModel::layoutProc(Proc &proc, std::uint32_t offset,
                      const std::vector<std::uint32_t> &seq)
{
    for (std::uint32_t id : seq) {
        Node &node = nodes[id];
        switch (node.kind) {
          case NodeKind::Run:
            node.runOffset = offset;
            offset += node.runLen;
            break;
          case NodeKind::Loop:
            offset = layoutProc(proc, offset, node.children);
            // Loop closing branch.
            offset += 1;
            break;
          case NodeKind::Call:
            // Call + (eventual) return delay slot.
            offset += static_cast<std::uint32_t>(kCallGlueWords);
            break;
        }
    }
    return offset;
}

void
CodeModel::startWalk()
{
    stack.clear();
    stack.push_back(Frame{0, &procs[0].body, 0, 1});
    runLen = runPos = 0;
    runBase = 0;
}

void
CodeModel::reset()
{
    walkRng = Rng(seed ^ 0x3a1c);
    startWalk();
}

Addr
CodeModel::walkToNextRun()
{
    while (true) {
        if (runPos < runLen) {
            const Addr pc = runBase + wordsToBytes(runPos);
            ++runPos;
            return pc;
        }

        // Phase change: abandon the call stack and restart in a
        // Zipf-popular procedure (see CodeParams::jumpProb and
        // jumpZipfAlpha).
        if (params.jumpProb > 0.0 &&
            walkRng.nextBernoulli(params.jumpProb)) {
            const auto rank = jumpPareto.draw(walkRng);
            const std::uint32_t target = jumpOrder[rank];
            stack.clear();
            stack.push_back(Frame{target, &procs[target].body, 0, 1});
        }

        // Advance the control stack to find the next run.
        Frame &top = stack.back();
        if (top.idx >= top.seq->size()) {
            if (top.itersLeft > 1) {
                --top.itersLeft;
                top.idx = 0;
            } else if (stack.size() > 1) {
                stack.pop_back();
            } else {
                // Main procedure completed: restart it (the program
                // runs for as long as the benchmark needs).
                top.idx = 0;
            }
            continue;
        }

        const Node &node = nodes[(*top.seq)[top.idx]];
        ++top.idx;
        switch (node.kind) {
          case NodeKind::Run:
            runBase = procs[top.procId].base +
                      wordsToBytes(node.runOffset);
            runLen = node.runLen;
            runPos = 0;
            break;
          case NodeKind::Loop: {
            const std::uint64_t iters = node.iters.draw(walkRng);
            stack.push_back(Frame{top.procId, &node.children, 0,
                                  std::max<std::uint64_t>(iters, 1)});
            break;
          }
          case NodeKind::Call:
            if (stack.size() < kMaxCallDepth) {
                stack.push_back(Frame{node.callee,
                                      &procs[node.callee].body, 0, 1});
            }
            break;
        }
    }
}

} // namespace gaas::synth
