package rmserver

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// checkAccepted asserts the parsers' contract: every op they accept
// carries a valid requirement, and a fleet decides the batch without
// panicking (a panic on a shard goroutine would kill the process).
func checkAccepted(t *testing.T, ops []Op) {
	for i := range ops {
		if ops[i].Kind != OpRegister {
			continue
		}
		if err := ops[i].app().Req.Validate(); err != nil {
			t.Fatalf("op %d accepted with an invalid contract: %v", i, err)
		}
	}
	f := New(Config{Shards: 1}, telemetry.NewRegistry())
	defer f.Drain()
	f.Do(ops)
}

// FuzzParseOpsText fuzzes the compact wire format. The seed corpus
// (testdata/fuzz/FuzzParseOpsText) holds the two contracts that used to
// reach the shard: a negative burst, which panicked inside the bound
// computation, and non-finite fields, which were admitted.
func FuzzParseOpsText(f *testing.F) {
	f.Add([]byte("r p a b 64 1000\nw p a\n"))
	f.Add([]byte("r p a c 0 0\n# comment\n\nr p b b 16 -1\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := parseOpsText(bytes.NewReader(body), 256)
		if err != nil {
			return
		}
		checkAccepted(t, ops)
	})
}

// FuzzParseOpsJSON fuzzes the JSON batch format; its seed corpus holds
// the negative-burst register.
func FuzzParseOpsJSON(f *testing.F) {
	f.Add([]byte(`{"ops":[{"kind":"register","platform":"p","app":"a","burst_bytes":64,"deadline_ns":600},{"kind":"withdraw","platform":"p","app":"a"}]}`))
	f.Add([]byte(`{"ops":[{"kind":"modechange","platform":"p","spec":{"policy":"non-symmetric","total_bytes_per_ns":1,"critical_bytes_per_ns":0.5,"service_latency_ns":100,"max_apps":2}}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := parseOpsJSON(bytes.NewReader(body), 256)
		if err != nil {
			return
		}
		checkAccepted(t, ops)
	})
}

// TestParseRejectsBadContracts is the contract table for both parsers:
// a negative or non-finite burst and a non-finite deadline are parse
// errors, while a non-positive finite deadline is still best effort.
func TestParseRejectsBadContracts(t *testing.T) {
	for _, c := range []struct {
		burst, deadline string
		ok              bool
	}{
		{"64", "600", true},
		{"0", "600", true},
		{"64", "0", true},
		{"64", "-5", true},
		{"-512", "600", false},
		{"NaN", "600", false},
		{"Inf", "600", false},
		{"-Inf", "600", false},
		{"64", "NaN", false},
		{"64", "+Inf", false},
		{"64", "-Inf", false},
	} {
		_, err := parseOpLine("r p a b " + c.burst + " " + c.deadline)
		if (err == nil) != c.ok {
			t.Errorf("text burst %s deadline %s: err %v, want ok=%v", c.burst, c.deadline, err, c.ok)
		}
		// JSON has no NaN/Inf literals; the finite rows go through
		// the JSON parser too.
		if strings.ContainsAny(c.burst+c.deadline, "NI") {
			continue
		}
		body := `{"ops":[{"kind":"register","platform":"p","app":"a","burst_bytes":` +
			c.burst + `,"deadline_ns":` + c.deadline + `}]}`
		if _, err := parseOpsJSON(strings.NewReader(body), 8); (err == nil) != c.ok {
			t.Errorf("json burst %s deadline %s: err %v, want ok=%v", c.burst, c.deadline, err, c.ok)
		}
	}
}

// TestHTTPBadContractKeepsServing is the regression for the shard
// crash: registers with a negative or NaN burst are 400s, and the
// server still answers the next request.
func TestHTTPBadContractKeepsServing(t *testing.T) {
	_, srv := testService(t, Config{Shards: 1})
	for _, body := range []string{"r p a b -512 600\n", "r p a b NaN 600\n", "r p a b 64 NaN\n"} {
		resp, err := http.Post(srv.URL+"/v1/batch", OpsContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, body := postJSON(t, srv.URL+"/v1/register", `{"platform":"p","app":"a","burst_bytes":-512,"deadline_ns":600}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("JSON negative burst: status %d (%s), want 400", resp.StatusCode, body)
	}
	resp, body = postJSON(t, srv.URL+"/v1/register", `{"platform":"p","app":"a","burst_bytes":64,"deadline_ns":1e6}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("server stopped answering after bad contracts: %d %s", resp.StatusCode, body)
	}
}
