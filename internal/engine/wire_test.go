package engine

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// The golden serialized form of a fully-populated ProgressEvent. This
// is the wire format of /v1/campaigns/{id}/events: changing it breaks
// API clients, so any diff here must come with a spec version bump and
// a deliberate decision — not a field rename.
const goldenProgressEvent = `{"row":1,"col":2,"rep":3,"cached":true,"deduped":true,"duration_ns":1500000,"stats":{"total":121,"done":60,"cached":20,"computed":35,"deduped":5,"elapsed_ns":2000000000},"health":{"cache_hit_rate":0.25,"queue_depth":61,"in_flight":4,"latency_p50_ns":1000000,"latency_p90_ns":2000000,"latency_p99_ns":4000000}}`

func goldenEvent() ProgressEvent {
	return ProgressEvent{
		Row: 1, Col: 2, Rep: 3,
		Cached:   true,
		Deduped:  true,
		Duration: 1500 * time.Microsecond,
		Stats: Stats{
			Total: 121, Done: 60, Cached: 20, Computed: 35, Deduped: 5,
			Elapsed: 2 * time.Second,
		},
		Health: Health{
			CacheHitRate: 0.25, QueueDepth: 61, InFlight: 4,
			LatencyP50: time.Millisecond,
			LatencyP90: 2 * time.Millisecond,
			LatencyP99: 4 * time.Millisecond,
		},
	}
}

func TestProgressEventWireGolden(t *testing.T) {
	data, err := json.Marshal(goldenEvent())
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenProgressEvent {
		t.Errorf("wire format drifted:\n got %s\nwant %s", data, goldenProgressEvent)
	}

	var back ProgressEvent
	if err := json.Unmarshal([]byte(goldenProgressEvent), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, goldenEvent()) {
		t.Errorf("round trip changed the event:\n got %+v\nwant %+v", back, goldenEvent())
	}
}

// The omitempty flags must drop exactly the cached/deduped markers on
// a plain computed cell — nothing else is optional.
func TestProgressEventOmitEmpty(t *testing.T) {
	ev := ProgressEvent{Row: 0, Col: 0, Rep: 0}
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"row":0,"col":0,"rep":0,"duration_ns":0,"stats":{"total":0,"done":0,"cached":0,"computed":0,"deduped":0,"elapsed_ns":0},"health":{"cache_hit_rate":0,"queue_depth":0,"in_flight":0,"latency_p50_ns":0,"latency_p90_ns":0,"latency_p99_ns":0}}`
	if string(data) != want {
		t.Errorf("computed-cell wire format drifted:\n got %s\nwant %s", data, want)
	}
}

// Every exported field of the wire structs must carry an explicit json
// tag, so a future field addition cannot silently leak a Go name into
// the API.
func TestWireStructsFullyTagged(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Stats{}),
		reflect.TypeOf(ProgressEvent{}),
		reflect.TypeOf(Health{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if tag := f.Tag.Get("json"); tag == "" || tag == "-" {
				t.Errorf("%s.%s has no stable json tag", typ.Name(), f.Name)
			}
		}
	}
}
