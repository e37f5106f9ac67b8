package main

import (
	"strings"
	"testing"
)

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP jobs_submitted_total Jobs.
# TYPE jobs_submitted_total counter
jobs_submitted_total 10
http_request_duration_seconds_sum{route="POST /v1/jobs"} 1.5
http_request_duration_seconds_count{route="POST /v1/jobs"} 100
http_request_duration_seconds_sum{route="GET /v1/jobs/{id}"} 0.5
http_request_duration_seconds_count{route="GET /v1/jobs/{id}"} 50
tenant_requests_total{tenant="alpha"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`jobs_submitted_total 30
http_request_duration_seconds_sum{route="POST /v1/jobs"} 3.5
http_request_duration_seconds_count{route="POST /v1/jobs"} 200
http_request_duration_seconds_sum{route="GET /v1/jobs/{id}"} 0.5
http_request_duration_seconds_count{route="GET /v1/jobs/{id}"} 50
tenant_requests_total{tenant="alpha"} 9
tenant_requests_total{tenant="beta"} 4
`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d.sum("jobs_submitted_total"); got != 20 {
		t.Errorf("submitted delta = %v, want 20", got)
	}
	if got := d.sum("tenant_requests_total"); got != 6 {
		t.Errorf("tenant requests delta = %v, want 6 (a new series counts from 0)", got)
	}
	if got := d.meanMS("http_request_duration_seconds", `route="POST /v1/jobs"`); got != 20 {
		t.Errorf("POST mean = %v ms, want 20", got)
	}
	if got := d.meanMS("http_request_duration_seconds", `route="GET /v1/jobs/{id}"`); got != 0 {
		t.Errorf("idle route mean = %v ms, want 0", got)
	}
	if _, err := parseProm(strings.NewReader("broken_metric notanumber\n")); err == nil {
		t.Error("a malformed sample must be an error")
	}
}

func TestStealShare(t *testing.T) {
	before := cpuStat{100, 0, 50, 800, 0, 0, 0, 50}
	after := cpuStat{160, 0, 70, 880, 0, 0, 0, 90}
	if got := after.stealShare(before); got != 0.2 {
		t.Errorf("steal share = %v, want 40/200 = 0.2", got)
	}
	if _, err := readCPUStat(); err != nil {
		t.Skipf("no /proc/stat here: %v", err)
	}
}
