package server

import "net/http"

// The structured error model: every non-2xx response from a /v1 or
// /debug endpoint carries an ErrorEnvelope whose "error" object has a
// stable machine-readable code from the catalog below, a human
// message, the instance involved (when one was resolved), whether the
// request is worth retrying, and — for rate-style rejections — a
// retry hint in milliseconds. The catalog is part of the API contract
// (documented in docs/SERVICE.md): codes never change meaning, new
// failure modes get new codes.

// The error code catalog. Grouped by the kind of failure.
const (
	// Request-shape errors (4xx, not retryable).
	codeBadRequest     = "bad_request"      // malformed or unparseable JSON body
	codeBadQuery       = "bad_query"        // query fails to parse or validate against the schema
	codeBadScheme      = "bad_scheme"       // unknown approximation scheme name
	codeInvalidOpts    = "invalid_options"  // eps/delta/sampling options out of range
	codeBodyTooLarge   = "body_too_large"   // request body exceeds the size cap
	codeMissingInst    = "missing_instance" // no instance named and the choice is ambiguous
	codeUnknownInst    = "unknown_instance" // named instance is not registered
	codeInstanceExists = "instance_exists"  // registration under a taken name
	codeBadInstance    = "bad_instance"     // instance spec invalid or build failed
	codeConflict       = "conflict"         // concurrent conflicting update (PATCH if_generation mismatch)
	codeNotFound       = "not_found"        // debug lookup of an unknown trace ID
	codeNoConvergence  = "no_convergence"   // request did not opt into convergence recording

	// Admission and quota rejections (retryable).
	codeQueueFull     = "queue_full"     // instance admission queue at capacity
	codeQuotaExceeded = "quota_exceeded" // instance over its request or work quota
	codeDraining      = "draining"       // server shutting down

	// Run outcomes.
	codeDeadline        = "deadline"         // request deadline expired (retryable with a longer timeout)
	codeCanceled        = "canceled"         // client went away mid-run
	codeBudgetExhausted = "budget_exhausted" // sampling budget hit before convergence
	codeInternal        = "internal"         // unexpected server-side failure
)

// retryableCodes marks the codes where the identical request can
// succeed later without modification: transient admission/quota
// pressure and deadline expiry.
var retryableCodes = map[string]bool{
	codeQueueFull:     true,
	codeQuotaExceeded: true,
	codeDraining:      true,
	codeDeadline:      true,
}

// APIError is the structured "error" object of every non-2xx response.
type APIError struct {
	// Code is a stable machine-readable identifier from the catalog.
	Code string `json:"code"`
	// Message is the human-readable detail; its text is not stable API.
	Message string `json:"message"`
	// Instance names the instance the request resolved to, when one
	// was involved in the failure.
	Instance string `json:"instance,omitempty"`
	// Retryable reports whether resending the identical request can
	// succeed (queue pressure, quota refill, shutdown of one replica).
	Retryable bool `json:"retryable"`
	// RetryAfterMS hints when a retryable request is worth retrying;
	// 0 means no estimate. Mirrors the Retry-After header where set.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the body of every non-2xx response.
type ErrorEnvelope struct {
	Error APIError `json:"error"`
}

// writeAPIError writes the envelope, filling Retryable from the
// catalog when the caller left it unset.
func writeAPIError(w http.ResponseWriter, status int, e APIError) {
	if !e.Retryable {
		e.Retryable = retryableCodes[e.Code]
	}
	writeJSON(w, status, ErrorEnvelope{Error: e})
}

// writeError is the instance-less error write, for failures before any
// instance resolution (and the /debug handlers).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeAPIError(w, status, APIError{Code: code, Message: msg})
}

// fail records the error code on the request's debug record (first
// code wins), attributes the resolved instance, and writes the
// envelope. The handler-side error path in one call.
func fail(w http.ResponseWriter, st *reqState, status int, code, msg string) {
	st.setReason(code)
	instance := ""
	if st != nil {
		instance = st.rec.Instance
	}
	writeAPIError(w, status, APIError{Code: code, Message: msg, Instance: instance})
}
