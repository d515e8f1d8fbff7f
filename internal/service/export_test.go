package service

// Test-only exports for the external service_test package, whose HTTP
// tests mount the /v1 surface on a P=1 shard.Router: the same fifo
// policy and test job as the in-package loop tests, and the
// unexported response shapes the handlers encode.

type FIFO = fifo

var TestJob = testJob

type (
	JobListResponse = jobListResponse
	ShardsResponse  = shardsResponse
)
