package registry

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func serverSpec(name, dataset string, mut func(*ServerSpec)) ServerSpec {
	s := ServerSpec{
		SessionSpec: SessionSpec{Dataset: dataset, Windows: 30, WindowLen: 6, Seed: 3},
		Name:        name,
	}
	if mut != nil {
		mut(&s)
	}
	return s
}

func TestValidateServerSpecs(t *testing.T) {
	cases := []struct {
		name    string
		specs   []ServerSpec
		wantSub string // "" means accept
	}{
		{
			name:  "one unnamed session",
			specs: []ServerSpec{serverSpec("", "proteins", nil)},
		},
		{
			name: "distinct names and families",
			specs: []ServerSpec{
				serverSpec("", "proteins", nil),
				serverSpec("", "songs", nil),
				serverSpec("traj-a", "traj", nil),
				serverSpec("traj-b", "traj", nil),
			},
		},
		{
			name: "shard fleet of one family",
			specs: []ServerSpec{
				serverSpec("p0", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = 0, 3 }),
				serverSpec("p1", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = 3, 6 }),
			},
		},
		{
			name:    "no sessions",
			specs:   nil,
			wantSub: "no sessions",
		},
		{
			name: "duplicate explicit names",
			specs: []ServerSpec{
				serverSpec("idx", "proteins", nil),
				serverSpec("idx", "songs", nil),
			},
			wantSub: `both mount as "idx"`,
		},
		{
			name: "duplicate defaulted names",
			specs: []ServerSpec{
				serverSpec("", "proteins", nil),
				serverSpec("", "proteins", nil),
			},
			wantSub: `both mount as "proteins"`,
		},
		{
			name:    "name with a slash",
			specs:   []ServerSpec{serverSpec("a/b", "proteins", nil)},
			wantSub: "letters, digits",
		},
		{
			name:    "name with a space",
			specs:   []ServerSpec{serverSpec("my index", "proteins", nil)},
			wantSub: "letters, digits",
		},
		{
			name:    "dot-dot name",
			specs:   []ServerSpec{serverSpec("..", "proteins", nil)},
			wantSub: "path traversal",
		},
		{
			name: "conflicting snapshot paths",
			specs: []ServerSpec{
				serverSpec("a", "proteins", func(s *ServerSpec) {
					s.SnapshotInterval = 1e9
					s.SnapshotPath = "/tmp/snaps/x.snap"
				}),
				serverSpec("b", "songs", func(s *ServerSpec) {
					s.SnapshotInterval = 1e9
					s.SnapshotPath = "/tmp/snaps//x.snap" // same file after Clean
				}),
			},
			wantSub: "clobber",
		},
		{
			name: "distinct snapshot paths accepted",
			specs: []ServerSpec{
				serverSpec("a", "proteins", func(s *ServerSpec) {
					s.SnapshotInterval = 1e9
					s.SnapshotPath = "/tmp/snaps/a.snap"
				}),
				serverSpec("b", "songs", func(s *ServerSpec) {
					s.SnapshotInterval = 1e9
					s.SnapshotPath = "/tmp/snaps/b.snap"
				}),
			},
		},
		{
			name: "negative shard range",
			specs: []ServerSpec{
				serverSpec("p", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = -1, 4 }),
			},
			wantSub: "before sequence 0",
		},
		{
			name: "empty shard range",
			specs: []ServerSpec{
				serverSpec("p", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = 4, 4 }),
			},
			// [4,4) has ShardLo != 0, so it counts as sharded and empty.
			wantSub: "empty",
		},
		{
			name: "inverted shard range",
			specs: []ServerSpec{
				serverSpec("p", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = 5, 2 }),
			},
			wantSub: "shard_hi must exceed shard_lo",
		},
		{
			name: "bad session inside the list names its index",
			specs: []ServerSpec{
				serverSpec("ok", "proteins", nil),
				serverSpec("bad", "no-such-family", nil),
			},
			wantSub: "session 1",
		},
		{
			name: "unsound pairing rejected with rationale",
			specs: []ServerSpec{
				serverSpec("dtw-tree", "songs", func(s *ServerSpec) { s.Measure = "dtw"; s.Backend = "refnet" }),
			},
			wantSub: "not a metric",
		},
		{
			name: "conflicting listen addresses",
			specs: []ServerSpec{
				serverSpec("a", "proteins", func(s *ServerSpec) { s.Addr = "127.0.0.1:9001" }),
				serverSpec("b", "songs", func(s *ServerSpec) { s.Addr = "127.0.0.1:9002" }),
			},
			wantSub: "one listener",
		},
		{
			name: "one addr named once is fine",
			specs: []ServerSpec{
				serverSpec("a", "proteins", func(s *ServerSpec) { s.Addr = "127.0.0.1:9001" }),
				serverSpec("b", "songs", nil),
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateServerSpecs(c.specs)
			if c.wantSub == "" {
				if err != nil {
					t.Fatalf("rejected valid spec list: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("accepted invalid spec list")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

func TestMountNameDefaultsToDataset(t *testing.T) {
	if got := serverSpec("", "songs", nil).MountName(); got != "songs" {
		t.Errorf("MountName() = %q, want songs", got)
	}
	if got := serverSpec("x", "songs", nil).MountName(); got != "x" {
		t.Errorf("MountName() = %q, want x", got)
	}
}

func TestListenAddr(t *testing.T) {
	specs := []ServerSpec{
		serverSpec("a", "proteins", nil),
		serverSpec("b", "songs", func(s *ServerSpec) { s.Addr = "127.0.0.1:9005" }),
	}
	if got := ListenAddr(specs); got != "127.0.0.1:9005" {
		t.Errorf("ListenAddr = %q", got)
	}
	if got := ListenAddr(specs[:1]); got != DefaultServeAddr {
		t.Errorf("ListenAddr with no addr = %q, want default", got)
	}
}

func TestServerSpecResolveEchoesShardAndName(t *testing.T) {
	s := serverSpec("p1", "proteins", func(s *ServerSpec) { s.ShardLo, s.ShardHi = 3, 7 })
	cfg, err := s.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if cfg.Name != "p1" || cfg.ShardLo != 3 || cfg.ShardHi != 7 {
		t.Errorf("config does not echo name/shard: %+v", cfg)
	}
}

// TestServerConfigWireShape pins the JSON a resolved ServerSpec marshals
// to, byte for byte: it is the "config" block of /stats and each entry of
// GET /sessions, so clients parse exactly these keys in this order. The
// default spec's worker count is GOMAXPROCS, filled in at run time.
func TestServerConfigWireShape(t *testing.T) {
	cases := []struct {
		name string
		spec ServerSpec
		want string
	}{
		{
			name: "default",
			spec: ServerSpec{SessionSpec: SessionSpec{Dataset: "proteins", Windows: 2000}},
			want: fmt.Sprintf(`{"dataset":{"name":"proteins","elem":"byte","description":"protein-like strings over the 20-letter amino-acid alphabet","default_measure":"levenshtein-fast"},"measure":{"name":"levenshtein-fast","elem":"byte","description":"unit-cost edit distance via Myers' bit-parallel recurrence","metric":true,"consistent":true,"lock_step":false,"incremental":true,"bounded":true},"backend":{"name":"linear","description":"exhaustive window scan (sound for every consistent measure)","needs_metric":false},"windows":2000,"window_len":20,"lambda":40,"lambda0":1,"seed":0,"addr":"127.0.0.1:8077","workers":%d,"queue_depth":1024,"shed":"block"}`,
				runtime.GOMAXPROCS(0)),
		},
		{
			name: "sharded traj/dfd/mv, every field set",
			spec: ServerSpec{
				SessionSpec: SessionSpec{Dataset: "traj", Measure: "frechet", Backend: "mv", Windows: 300,
					WindowLen: 8, Lambda0: 3, Seed: 9, ShardLo: 1, ShardHi: 4},
				Name: "t1", Restore: "t1.snap", Addr: "127.0.0.1:9001", Workers: 3, QueueDepth: 64,
				Shed: "reject", RequestTimeout: 1500 * time.Millisecond,
				SnapshotInterval: 2 * time.Second, SnapshotPath: "t1-bg.snap",
			},
			want: `{"name":"t1","dataset":{"name":"traj","elem":"point2","description":"2-D parking-lot trajectories","default_measure":"erp"},"measure":{"name":"dfd","elem":"point2","description":"discrete Fréchet distance (max-aggregated warping metric)","metric":true,"consistent":true,"lock_step":false,"incremental":false,"bounded":true},"backend":{"name":"mv","description":"reference-based index with maximum-variance reference selection","needs_metric":true},"windows":300,"window_len":8,"lambda":16,"lambda0":3,"seed":9,"shard_lo":1,"shard_hi":4,"restore":"t1.snap","addr":"127.0.0.1:9001","workers":3,"queue_depth":64,"shed":"reject","request_timeout_ms":1500,"snapshot_interval_ms":2000,"snapshot_path":"t1-bg.snap"}`,
		},
		{
			name: "lock-step euclidean",
			spec: ServerSpec{SessionSpec: SessionSpec{Dataset: "songs", Measure: "l2", Windows: 50, WindowLen: 5, Seed: 2}, Workers: 1},
			want: `{"dataset":{"name":"songs","elem":"float64","description":"melodic pitch-class series (values 0..11)","default_measure":"dfd"},"measure":{"name":"euclidean","elem":"float64","description":"lock-step L2 distance over equal-length sequences","metric":true,"consistent":true,"lock_step":true,"incremental":true,"bounded":true},"backend":{"name":"refnet","description":"the paper's Reference Net (multi-parent hierarchical metric index)","needs_metric":true},"windows":50,"window_len":5,"lambda":10,"lambda0":0,"seed":2,"addr":"127.0.0.1:8077","workers":1,"queue_depth":1024,"shed":"block"}`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := c.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.want {
				t.Errorf("wire shape changed\ngot  %s\nwant %s", got, c.want)
			}
		})
	}
}
