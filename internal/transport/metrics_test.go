package transport

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bbcast/internal/obsv"
	"bbcast/internal/wire"
)

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// promValue extracts one sample value from a Prometheus text exposition.
func promValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// TestUDPMetricsSmoke is the CI smoke: two live UDP nodes exchange one
// broadcast, and the sender's debug endpoint must expose non-zero
// bbcast_tx_total while the receiver counts the matching rx and accept. The
// receiver holds the message, so it asks for nothing: it received exactly the
// data frames the sender put on the air, each counted once.
func TestUDPMetricsSmoke(t *testing.T) {
	nodes, sinks := mesh(t, 2)
	addr0, err := nodes[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, err := nodes[1].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	id := nodes[0].Broadcast([]byte("scrape me"))
	if !waitFor(t, 5*time.Second, func() bool { return sinks[1].has(id) }) {
		t.Fatalf("receiver never delivered %v", id)
	}

	status, body := httpGet(t, fmt.Sprintf("http://%s/metrics", addr0))
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if !strings.Contains(body, "# TYPE bbcast_tx_total counter") {
		t.Fatalf("exposition missing TYPE line:\n%s", body)
	}
	txData, ok := promValue(body, `bbcast_tx_total{kind="data"}`)
	if !ok || txData == 0 {
		t.Fatalf("sender tx data = %v (found=%v); scrape:\n%s", txData, ok, body)
	}
	if injects, _ := promValue(body, "bbcast_injects_total"); injects != 1 {
		t.Fatalf("sender injects = %v, want 1", injects)
	}

	_, body1 := httpGet(t, fmt.Sprintf("http://%s/metrics", addr1))
	if rxData, ok := promValue(body1, `bbcast_rx_total{kind="data"}`); !ok || rxData != txData {
		t.Fatalf("receiver rx data = %v (found=%v), want the sender's tx data %v", rxData, ok, txData)
	}
	if accepts, _ := promValue(body1, "bbcast_accepts_total"); accepts == 0 {
		t.Fatal("receiver accepts = 0 after delivery")
	}
}

func TestUDPMetricsJSONAndStatus(t *testing.T) {
	nodes, _ := mesh(t, 2)
	addr, err := nodes[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].Broadcast([]byte("x"))

	_, body := httpGet(t, fmt.Sprintf("http://%s/metrics.json", addr))
	var d obsv.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/metrics.json is not a registry dump: %v\n%s", err, body)
	}
	if d.Counters[obsv.MetricInjectsTotal] != 1 {
		t.Fatalf("injects in dump = %d", d.Counters[obsv.MetricInjectsTotal])
	}

	_, body = httpGet(t, fmt.Sprintf("http://%s/status", addr))
	var st struct {
		ID   *int   `json:"id"`
		Role string `json:"role"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.ID == nil || wire.NodeID(*st.ID) != nodes[0].ID() || st.Role == "" {
		t.Fatalf("/status = %s", body)
	}

	status, _ := httpGet(t, fmt.Sprintf("http://%s/debug/vars", addr))
	if status != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", status)
	}
}

func TestServeDebugReplacesAndClosesWithNode(t *testing.T) {
	nodes, _ := mesh(t, 2)
	addr1, err := nodes[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := nodes[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The first server is gone, the second serves.
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr1)); err == nil {
		t.Fatal("replaced debug server still serving")
	}
	if status, _ := httpGet(t, fmt.Sprintf("http://%s/metrics", addr2)); status != http.StatusOK {
		t.Fatalf("second debug server status = %d", status)
	}
	nodes[0].Close()
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr2)); err == nil {
		t.Fatal("debug server survived node Close")
	}
}
