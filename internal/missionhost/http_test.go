package missionhost

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPCrudRoundTrip(t *testing.T) {
	h := newTestHost(t, Config{})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	// Create.
	resp, err := http.Post(srv.URL+"/missions", "application/json",
		strings.NewReader(`{"id":"web","seed":4,"uavs":2,"persons":2,"horizon_s":120}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/missions/web" {
		t.Fatalf("Location = %q", loc)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	resp.Body.Close()
	if info.ID != "web" || info.State != "running" || info.Kind != "classic" {
		t.Fatalf("create info = %+v", info)
	}

	// List.
	resp, err = http.Get(srv.URL + "/missions")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	var list []Info
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != "web" {
		t.Fatalf("list = %+v", list)
	}

	// Directory entry.
	resp, err = http.Get(srv.URL + "/missions/web")
	if err != nil {
		t.Fatalf("GET info: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET info status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Status snapshot.
	h.Round()
	resp, err = http.Get(srv.URL + "/missions/web/status")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("status content-type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if snap.Mission != "web" || snap.Tick == 0 || len(snap.Status.UAVs) != 2 {
		t.Fatalf("status snapshot = %+v", snap)
	}

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/missions/web", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/missions/web/status")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPCreateRejects(t *testing.T) {
	h := newTestHost(t, Config{MaxMissions: 1})
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/missions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode
	}
	if code := post(`{"bogus":1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field -> %d", code)
	}
	if code := post(`{"id":"one","uavs":2,"persons":2,"horizon_s":60}`); code != http.StatusCreated {
		t.Fatalf("valid create -> %d", code)
	}
	if code := post(`{"id":"one"}`); code != http.StatusConflict {
		t.Fatalf("duplicate -> %d", code)
	}
	if code := post(`{"id":"two","uavs":2,"persons":2,"horizon_s":60}`); code != http.StatusTooManyRequests {
		t.Fatalf("registry full -> %d", code)
	}
	// DELETE on the collection path is not routed.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/missions", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /missions -> %d", resp.StatusCode)
	}
}

func TestHTTPStream(t *testing.T) {
	h := newTestHost(t, Config{TickBudget: 2})
	if _, err := h.Create(quickSpec("sse", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/missions/sse/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}

	// Publish a couple of rounds while the stream is open.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			h.Round()
		}
	}()

	// Each frame is exactly "event: snapshot", "id: <seq>", "data:
	// <json>" and one blank line.
	sc := bufio.NewScanner(resp.Body)
	var events int
	var last Snapshot
	var frame []string
	for sc.Scan() && events < 3 {
		if frame = append(frame, sc.Text()); len(frame) < 4 {
			continue
		}
		if frame[0] != "event: snapshot" || !strings.HasPrefix(frame[2], "data: ") || frame[3] != "" {
			t.Fatalf("malformed SSE frame %q", frame)
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(frame[2], "data: ")), &last); err != nil {
			t.Fatalf("bad SSE payload %q: %v", frame[2], err)
		}
		if frame[1] != fmt.Sprintf("id: %d", last.Seq) {
			t.Fatalf("SSE id line %q for seq %d", frame[1], last.Seq)
		}
		frame = frame[:0]
		events++
	}
	<-done
	if events < 3 {
		t.Fatalf("read %d SSE events, want >= 3 (scan err %v)", events, sc.Err())
	}
	if last.Mission != "sse" || last.Seq == 0 {
		t.Fatalf("last streamed snapshot = %+v", last)
	}
	cancel()

	// Streaming an unknown mission is a 404, not a hang.
	resp2, err := http.Get(srv.URL + "/missions/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("stream of unknown mission -> %d", resp2.StatusCode)
	}
}

func TestHTTPStreamRehydratesParkedMission(t *testing.T) {
	h := newTestHost(t, Config{TickBudget: 2})
	if _, err := h.Create(quickSpec("parked-sse", 1)); err != nil {
		t.Fatalf("create: %v", err)
	}
	h.Round()
	if err := h.Park("parked-sse"); err != nil {
		t.Fatalf("Park: %v", err)
	}
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/missions/parked-sse/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream of parked mission -> %d, want 200 after rehydrate", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			break
		}
	}
	info, _ := h.Info("parked-sse")
	if info.State != "running" {
		t.Fatalf("mission state after stream attach = %q", info.State)
	}
}
