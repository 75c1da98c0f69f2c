#include "plan/driver.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "corpus/run_budget.h"
#include "query/flat_kernel.h"

namespace uxm {

namespace {

/// True when the shared threshold proves this request's answers can no
/// longer reach the global top-k (see DriverRequest::cancel_threshold).
bool ShouldCancel(const DriverRequest& request) {
  return request.cancel_threshold != nullptr &&
         request.cancel_threshold->load(std::memory_order_relaxed) >
             request.upper_bound + kAnswerBoundSlack;
}

Status CancelledStatus() {
  return Status::Cancelled(
      "answer upper bound fell below the corpus top-k threshold");
}

Status BudgetExpiredStatus() {
  return Status::Cancelled("corpus run budget expired before evaluation");
}

/// Rejects requests missing a required pointer.
Status Validate(const DriverRequest& request) {
  if (request.pair == nullptr) {
    return Status::InvalidArgument("request has no prepared pair");
  }
  if (request.doc == nullptr) {
    return Status::InvalidArgument("request has a null document");
  }
  if (request.twig == nullptr) {
    return Status::InvalidArgument("request has no twig");
  }
  return Status::OK();
}

ItemKeyRef RequestKey(const DriverRequest& request) {
  return ResultKey(*request.twig, HashTwig(*request.twig), *request.doc,
                   request.epoch, request.options.top_k,
                   request.use_block_tree, *request.pair);
}

/// The request's result-cache entry, or null on a miss (or without a
/// cache). Records the probe's outcome in `counters`.
std::shared_ptr<const RankedPtqResult> Probe(const DriverRequest& request,
                                             DriverCounters* counters) {
  if (request.cache == nullptr) return nullptr;
  auto hit = request.cache->Lookup(RequestKey(request));
  if (counters != nullptr) {
    counters->result_hit = hit != nullptr;
    counters->result_miss = hit == nullptr;
  }
  return hit;
}

/// Whether a fresh answer of `request` goes into the result cache.
/// Budgeted runs never populate it (see DriverRequest::budget): a
/// truncated run's artifacts must not be served to later exact callers.
bool ShouldInsert(const DriverRequest& request) {
  return request.cache != nullptr && request.budget == nullptr;
}

/// Everything past a result-cache miss: cancel/budget checks, compile,
/// early-termination selection and the flat kernel.
Result<PtqResult> Evaluate(const DriverRequest& request,
                           DriverCounters* counters) {
  const PreparedSchemaPair& pair = *request.pair;
  // Past the (free) cache probe, this request is about to do real work;
  // abort if the scheduler's threshold already proves it pointless or the
  // run's budget has expired.
  if (ShouldCancel(request)) {
    if (counters != nullptr) counters->cancelled = true;
    return CancelledStatus();
  }
  if (request.budget != nullptr && request.budget->ExpiredNow()) {
    if (counters != nullptr) counters->cancelled = true;
    return BudgetExpiredStatus();
  }
  bool compile_hit = false;
  auto compiled = pair.compiler->Compile(*request.twig, &compile_hit);
  if (counters != nullptr) counters->compile_hit = compile_hit;
  if (!compiled.ok()) return compiled.status();
  const QueryPlan& plan = **compiled;
  const std::vector<MappingId> selected = plan.SelectForTopK(
      request.options.top_k,
      counters != nullptr ? &counters->select : nullptr);
  // Re-check between selection and evaluation: the threshold may have
  // risen while this worker compiled/selected, and evaluation is the
  // expensive phase worth aborting.
  if (ShouldCancel(request)) {
    if (counters != nullptr) counters->cancelled = true;
    return CancelledStatus();
  }
  // Evaluation is where the budget's credits are spent: one per kernel
  // entered. An expired budget (or a denied credit, which publishes
  // expiry) aborts exactly like a threshold cancel.
  if (request.budget != nullptr && (request.budget->ExpiredNow() ||
                                    !request.budget->TryConsumeEvaluation())) {
    if (counters != nullptr) counters->cancelled = true;
    return BudgetExpiredStatus();
  }
  MonotonicScratch* arena =
      request.scratch != nullptr ? request.scratch : ThreadLocalScratch();
  // One Reset per evaluation: everything the previous request carved
  // out of this arena is reclaimed (and coalesced) here.
  arena->Reset();
  // Same predicate as ShouldCancel, pre-reduced to one double so the
  // kernel's periodic ticks are a load and a compare.
  KernelCancelContext cancel;
  cancel.threshold = request.cancel_threshold;
  cancel.cancel_above = request.upper_bound + kAnswerBoundSlack;
  if (request.budget != nullptr) {
    cancel.expired = request.budget->expired_flag();
    cancel.deadline = request.budget->deadline();
  }
  Result<PtqResult> answer =
      request.use_block_tree
          ? EvaluateTreeFlat(plan.query(), plan.embeddings(), selected,
                             plan.truncated_embeddings(), *pair.flat,
                             *request.doc, request.options, arena, &cancel)
          : EvaluateBasicFlat(plan.query(), plan.embeddings(), selected,
                              plan.truncated_embeddings(), *pair.flat,
                              *request.doc, request.options, arena, &cancel);
  if (!answer.ok() && answer.status().IsCancelled() && counters != nullptr) {
    counters->cancelled = true;
    counters->cancelled_in_kernel = true;
  }
  return answer;
}

}  // namespace

ItemKeyRef ResultKey(std::string_view twig, size_t twig_hash,
                     const AnnotatedDocument& doc, uint64_t epoch, int top_k,
                     bool use_block_tree, const PreparedSchemaPair& pair) {
  return ItemKeyRef(twig, twig_hash, &doc.doc(), epoch, top_k, use_block_tree,
                    pair.pair_id);
}

Result<std::shared_ptr<const RankedPtqResult>> ExecutionDriver::ExecuteRanked(
    const DriverRequest& request, DriverCounters* counters) {
  if (counters != nullptr) *counters = DriverCounters{};
  UXM_RETURN_NOT_OK(Validate(request));
  UXM_INJECT_FAULT(FaultSite::kDriverDispatch);
  if (auto hit = Probe(request, counters)) return hit;
  Result<PtqResult> answer = Evaluate(request, counters);
  if (!answer.ok()) return answer.status();
  auto entry =
      std::make_shared<const RankedPtqResult>(std::move(answer).ValueOrDie());
  if (ShouldInsert(request)) request.cache->Insert(RequestKey(request), entry);
  return entry;
}

Result<PtqResult> ExecutionDriver::Execute(const DriverRequest& request,
                                           DriverCounters* counters) {
  if (counters != nullptr) *counters = DriverCounters{};
  UXM_RETURN_NOT_OK(Validate(request));
  UXM_INJECT_FAULT(FaultSite::kDriverDispatch);
  if (auto hit = Probe(request, counters)) return hit->result;
  Result<PtqResult> answer = Evaluate(request, counters);
  if (answer.ok() && ShouldInsert(request)) {
    request.cache->Insert(RequestKey(request),
                          std::make_shared<const RankedPtqResult>(answer.value()));
  }
  return answer;
}

}  // namespace uxm
