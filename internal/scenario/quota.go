package scenario

import (
	"fmt"
	"math"
)

// QuotaSpec declares per-instance admission limits for the estimation
// service: a token bucket on requests, a token bucket on estimated
// sampling work (worker-seconds: wall seconds × effective sampling
// pool size), and a cap on concurrently running requests. It rides on
// an InstanceSpec in the instance manifest ("quota": {...}) and is
// also the wire form of the quota block in PATCH /v1/instances/{name}
// and instance summaries.
//
// Bucket semantics: Rate is the sustained refill in tokens/second and
// Burst the bucket capacity (buckets start full). Rate 0 with Burst 0
// means unlimited; Rate 0 with Burst > 0 is a fixed pool that never
// refills (useful in tests and for hard one-shot budgets). Rate > 0
// with Burst 0 defaults the capacity to max(1, Rate).
type QuotaSpec struct {
	// Rate / Burst shape the request bucket: each admitted estimate or
	// synopsis request debits one token.
	Rate  float64 `json:"rate,omitempty"`
	Burst float64 `json:"burst,omitempty"`
	// WorkRate / WorkBurst shape the sampling-work bucket, measured in
	// worker-seconds. Estimates are post-charged their actual cost
	// (elapsed × sampling workers), so the bucket may go negative; new
	// work is refused until it refills above zero.
	WorkRate  float64 `json:"work_rate,omitempty"`
	WorkBurst float64 `json:"work_burst,omitempty"`
	// MaxConcurrent caps this instance's concurrently running requests
	// (the scheduler skips the instance while it is at the cap). 0 means
	// no per-instance cap beyond the shared worker pool.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
}

// Validate rejects quota fields that cannot shape a bucket: negative
// or non-finite rates, bursts or caps.
func (q *QuotaSpec) Validate() error {
	check := func(field string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("scenario: quota %s = %g (want a finite value >= 0)", field, v)
		}
		return nil
	}
	if err := check("rate", q.Rate); err != nil {
		return err
	}
	if err := check("burst", q.Burst); err != nil {
		return err
	}
	if err := check("work_rate", q.WorkRate); err != nil {
		return err
	}
	if err := check("work_burst", q.WorkBurst); err != nil {
		return err
	}
	if q.MaxConcurrent < 0 {
		return fmt.Errorf("scenario: quota max_concurrent = %d (want >= 0)", q.MaxConcurrent)
	}
	return nil
}

// Normalized returns a copy with defaulted bucket capacities (a
// rate-only bucket gets capacity max(1, rate)), so the service and the
// summaries agree on the effective limits.
func (q QuotaSpec) Normalized() QuotaSpec {
	if q.Rate > 0 && q.Burst == 0 {
		q.Burst = math.Max(1, q.Rate)
	}
	if q.WorkRate > 0 && q.WorkBurst == 0 {
		q.WorkBurst = math.Max(1, q.WorkRate)
	}
	return q
}

// MaxInstanceWeight bounds DRR weights; weights are small integers,
// and the ceiling keeps deficit arithmetic far from overflow.
const MaxInstanceWeight = 1 << 20

// ValidateWeight rejects out-of-range scheduling weights. 0 is valid
// (it selects the default weight 1); negatives and values above
// MaxInstanceWeight are not.
func ValidateWeight(w int) error {
	if w < 0 || w > MaxInstanceWeight {
		return fmt.Errorf("scenario: weight %d out of range [0, %d]", w, MaxInstanceWeight)
	}
	return nil
}
