package shard

import "goofi/internal/telemetry"

// Transport-layer counters. Children are resolved once at init so the
// retry hot path never touches the family's mutex.
var mRetries = telemetry.NewCounterVec("goofi_shard_transport_retries_total",
	"Shard transport calls retried, by error class.", "class")

var (
	mRetriesTimeout = mRetries.With(ClassTimeout)
	mRetriesConn    = mRetries.With(ClassConn)
	mRetriesStatus  = mRetries.With(ClassStatus)
	mRetriesDecode  = mRetries.With(ClassDecode)
)

// retryCounter resolves the pre-built child for a classified error.
func retryCounter(class string) *telemetry.Counter {
	switch class {
	case ClassTimeout:
		return mRetriesTimeout
	case ClassConn:
		return mRetriesConn
	case ClassDecode:
		return mRetriesDecode
	default:
		return mRetriesStatus
	}
}

var mTimeouts = telemetry.NewCounter("goofi_shard_transport_timeouts_total",
	"Shard transport calls that hit their per-call deadline.")

var mDelivDeduped = telemetry.NewCounter("goofi_shard_report_deliveries_deduped_total",
	"Retried report deliveries acknowledged from the coordinator's idempotency cache instead of re-merged.")

// The report and lease path, as the coordinator sees it.
var (
	mLeaseParked = telemetry.NewHistogram("goofi_shard_lease_parked_seconds",
		"Time lease requests spent parked in the coordinator waiting for a range, the campaign's end or the park limit.",
		telemetry.DurationBuckets)
	mReportBytes = telemetry.NewCounter("goofi_shard_report_bytes_total",
		"Bytes of report frames the coordinator decoded.")
	mReportRows = telemetry.NewCounter("goofi_shard_report_rows_total",
		"Rows delivered to the coordinator in reports, before the exactly-once filter.")
)
