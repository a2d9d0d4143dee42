package inject

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// fakePlatform is a Platform that only remembers which faults are currently
// applied. The admission chain is a real one — hooks that alternately allow
// and deny everything — whose faults are observed through what it does to a
// write.
type fakePlatform struct {
	replicas, zones int
	chain           *apiserver.AdmissionChain
	applied         map[string]bool
	calls           int
}

// newFakePlatform is three replicas, three zones, and a chain of an
// allow-everything "image-policy" hook and a deny-everything "limits-policy".
func newFakePlatform() *fakePlatform { return newFakePlatformOf(3, 2, 3) }

// newFakePlatformOf is a platform of the given size; no hooks means no chain.
func newFakePlatformOf(replicas, hooks, zones int) *fakePlatform {
	p := &fakePlatform{replicas: replicas, zones: zones, applied: make(map[string]bool)}
	if hooks == 0 {
		return p
	}
	var chain []*apiserver.AdmissionHook
	for i := 0; i < hooks; i++ {
		name := fmt.Sprintf("hook-%d", i)
		if i < 2 {
			name = [...]string{"image-policy", "limits-policy"}[i]
		}
		var verdict error
		if i%2 == 1 {
			verdict = errors.New("denied")
		}
		chain = append(chain, &apiserver.AdmissionHook{
			Name:     name,
			Validate: func(spec.Object) error { return verdict },
		})
	}
	p.chain = apiserver.NewAdmissionChain(apiserver.FailOpen, chain...)
	return p
}

func (f *fakePlatform) set(fault string, on bool) {
	f.calls++
	if on {
		f.applied[fault] = true
	} else {
		delete(f.applied, fault)
	}
}

func (f *fakePlatform) Replicas() int { return f.replicas }
func (f *fakePlatform) SetAPIServerDown(i int, down bool) {
	f.set(fmt.Sprintf("apiserver-%d down", i), down)
}
func (f *fakePlatform) SetMasterIsolated(i int, isolated bool) {
	f.set(fmt.Sprintf("master-%d isolated", i), isolated)
}
func (f *fakePlatform) SetStoreReplicaLost(i int, lost bool) {
	f.set(fmt.Sprintf("store-%d lost", i), lost)
}
func (f *fakePlatform) Admission() *apiserver.AdmissionChain { return f.chain }
func (f *fakePlatform) Zones() int                           { return f.zones }
func (f *fakePlatform) ZoneName(i int) string                { return fmt.Sprintf("zone-%d", i) }
func (f *fakePlatform) SetZoneLink(zone string, up bool)     { f.set(zone+" link down", !up) }
func (f *fakePlatform) SetZonePartitioned(zone string, cut bool) {
	f.set(zone+" partitioned", cut)
}
func (f *fakePlatform) SetZoneNodesDown(zone string, down bool) { f.set(zone+" nodes down", down) }

// state summarizes every fault currently applied to the platform.
func (f *fakePlatform) state() string {
	var faults []string
	for fault := range f.applied {
		faults = append(faults, fault)
	}
	sort.Strings(faults)
	if f.chain != nil {
		admitted := f.chain.Admit(apiserver.VerbCreate, pod("canary")) == nil
		faults = append(faults, fmt.Sprintf("chain degraded=%v admits=%v", f.chain.Degraded(), admitted))
	}
	return strings.Join(faults, ", ")
}

func armed(p Platform, in Injection) (*sim.Loop, *Injector) {
	loop := sim.NewLoop(1)
	j := New(loop)
	if p != nil {
		j.AttachPlatform(p)
	}
	j.Arm(in)
	return loop, j
}

const (
	testAfter = 3 * time.Second
	testHeal  = 18 * time.Second
)

// TestTimedAxes drives every row of the axes table through the one
// arm → fire → heal path against the fake platform.
func TestTimedAxes(t *testing.T) {
	wantInstance := map[FaultType]string{
		FaultAPIServerCrash:  "control-plane/apiserver-1",
		FaultMasterPartition: "control-plane/master-1",
		FaultStoreLoss:       "control-plane/store-1",
		FaultWebhookDown:     "admission/limits-policy",
		FaultWebhookLatency:  "admission/limits-policy",
		FaultWebhookSelector: "admission/limits-policy",
		FaultWebhookPolicy:   "admission/limits-policy",
		FaultEdgeLinkFlap:    "topology/zone-1",
		FaultZonePartition:   "topology/zone-1",
		FaultNodeKill:        "topology/zone-1",
	}
	if len(wantInstance) != len(axes) {
		t.Fatalf("test covers %d axes, the table has %d", len(wantInstance), len(axes))
	}
	for i := range axes {
		ax := &axes[i]
		in := Injection{Type: ax.fault, Replica: 1, Policy: "Fail", After: testAfter, Heal: testHeal}
		t.Run(ax.name, func(t *testing.T) {
			if got := ax.fault.String(); got != ax.name {
				t.Errorf("String() = %q, want %q", got, ax.name)
			}
			if !strings.Contains(in.Label(), ax.name) || !strings.HasPrefix(in.Label(), families[ax.family].name+" ") {
				t.Errorf("Label() = %q lacks family or axis name", in.Label())
			}

			p := newFakePlatform()
			healthy := newFakePlatform().state()
			loop, j := armed(p, in)
			if ax.family == FamilyAdmission {
				// The policy override applies from arming; it is inert while
				// every hook is healthy.
				p.chain.SetWebhookDown(0, true)
				if !p.chain.Degraded() {
					t.Error("arming under policy Fail left the chain fail-open")
				}
				p.chain.SetWebhookDown(0, false)
			}

			loop.RunUntil(testAfter - time.Millisecond)
			if rep := j.Report(); rep.Fired || p.state() != healthy {
				t.Fatalf("before After: fired=%v state=%q", rep.Fired, p.state())
			}
			loop.RunUntil(testAfter)
			rep := j.Report()
			if !rep.Fired || !rep.Activated || rep.FiredAt != testAfter || rep.Instance != wantInstance[ax.fault] {
				t.Fatalf("at After: report = %+v, want fired on %s", rep, wantInstance[ax.fault])
			}
			if p.state() == healthy {
				t.Fatal("at After: fault fired but the platform is unchanged")
			}
			faulty := p.state()

			if ax.flap > 0 {
				// Off one period after firing, on again one period later.
				loop.RunUntil(testAfter + ax.flap)
				if p.state() != healthy {
					t.Errorf("flap: still %q one period after firing", p.state())
				}
				loop.RunUntil(testAfter + 2*ax.flap)
				if p.state() != faulty {
					t.Errorf("flap: %q two periods after firing, want %q", p.state(), faulty)
				}
			}

			loop.RunUntil(testHeal - time.Millisecond)
			if j.Report().Healed {
				t.Fatal("healed before Heal")
			}
			loop.RunUntil(testHeal)
			if rep := j.Report(); !rep.Healed || rep.HealedAt != testHeal || p.state() != healthy {
				t.Fatalf("at Heal: report = %+v state=%q", rep, p.state())
			}
			calls := p.calls
			loop.RunUntil(testHeal + time.Minute)
			if p.calls != calls || p.state() != healthy {
				t.Errorf("after Heal: platform touched again (%d → %d calls), state=%q", calls, p.calls, p.state())
			}
		})

		t.Run(ax.name+"/disarm", func(t *testing.T) {
			p := newFakePlatform()
			healthy := p.state()
			loop, j := armed(p, in)
			loop.RunUntil(time.Second)
			// Arming an empty injection disarms: the pending steps of the
			// earlier Arm find another injection armed and do nothing.
			j.Arm(Injection{})
			loop.RunUntil(testHeal + time.Minute)
			if rep := j.Report(); rep.Fired || rep.Healed || p.calls != 0 || p.state() != healthy {
				t.Fatalf("disarmed fault still acted: report=%+v calls=%d state=%q", rep, p.calls, p.state())
			}
		})

		t.Run(ax.name+"/no-handle", func(t *testing.T) {
			// A flat single-replica cluster without a chain, and no platform
			// at all (single-server assembly).
			bare := &fakePlatform{replicas: 1, zones: 1, applied: make(map[string]bool)}
			for _, p := range []Platform{bare, nil} {
				loop, j := armed(p, in)
				loop.RunUntil(testHeal + time.Minute)
				wantFired := p != nil && ax.family == FamilyControlPlane
				if rep := j.Report(); rep.Fired != wantFired {
					t.Errorf("platform %v: fired=%v, want %v", p != nil, rep.Fired, wantFired)
				}
			}
		})
	}
}

// TestTimedFaultWithoutHealPersists: Heal == 0 leaves the fault applied.
func TestTimedFaultWithoutHealPersists(t *testing.T) {
	p := newFakePlatform()
	loop, j := armed(p, Injection{Type: FaultZonePartition, Replica: 2, After: testAfter})
	loop.RunUntil(time.Minute)
	if rep := j.Report(); !rep.Fired || rep.Healed || !p.applied["zone-2 partitioned"] {
		t.Fatalf("report=%+v applied=%v", rep, p.applied)
	}
}

// TestTimedFaultTargetIsNormalized: an Injection.Replica outside the
// family's range — negative or too large — folds onto a valid target instead
// of indexing out of range, the same way for every family.
func TestTimedFaultTargetIsNormalized(t *testing.T) {
	for _, tc := range []struct {
		fault   FaultType
		replica int
		want    string
	}{
		{FaultAPIServerCrash, -1, "control-plane/apiserver-1"},
		{FaultAPIServerCrash, 4, "control-plane/apiserver-1"},
		{FaultAPIServerCrash, -3, "control-plane/apiserver-0"},
		{FaultWebhookDown, -1, "admission/limits-policy"},
		{FaultWebhookDown, 2, "admission/image-policy"},
		{FaultNodeKill, -2, "topology/zone-2"},
		{FaultNodeKill, 5, "topology/zone-2"},
		{FaultNodeKill, -1 << 63, "topology/zone-2"},
	} {
		p := newFakePlatform()
		loop, j := armed(p, Injection{Type: tc.fault, Replica: tc.replica, After: testAfter, Heal: testHeal})
		loop.RunUntil(testAfter)
		if got := j.Report().Instance; got != tc.want {
			t.Errorf("%s replica=%d hit %q, want %q", tc.fault, tc.replica, got, tc.want)
		}
		loop.RunUntil(testHeal)
		if !j.Report().Healed || len(p.applied) != 0 {
			t.Errorf("%s replica=%d: heal missed the fired target: %v", tc.fault, tc.replica, p.applied)
		}
	}
}

// TestTimedFaultTable pins what the layers above read from the table.
func TestTimedFaultTable(t *testing.T) {
	for _, f := range TimedFamilies() {
		for _, fault := range TimedFaults(f) {
			if fault.Family() != f {
				t.Errorf("%s listed under %s but belongs to %s", fault, f, fault.Family())
			}
		}
	}
	if n := len(TimedFaults(FamilyControlPlane)) + len(TimedFaults(FamilyAdmission)) + len(TimedFaults(FamilyTopology)); n != len(axes) {
		t.Errorf("families list %d axes, the table has %d", n, len(axes))
	}
	for _, fault := range []FaultType{BitFlip, SetValue, DropMessage, FlipProtoByte} {
		if fault.Family() != 0 {
			t.Errorf("%s is a message fault but has family %s", fault, fault.Family())
		}
	}
}

// FuzzInjectionTarget arms arbitrary timed faults — any axis, any Replica
// (negative and math.MinInt included), any Policy, any After and Heal — on
// platforms of random size, and holds the one arm → fire → heal path to three
// things: it never panics, the target it touches is one the family can
// address, and a healed fault leaves the platform as healthy as it found it.
func FuzzInjectionTarget(f *testing.F) {
	f.Add(uint8(0), int64(1), "Fail", int64(testAfter), int64(testHeal), uint8(3), uint8(2), uint8(3))
	f.Add(uint8(4), int64(-1), "", int64(0), int64(0), uint8(1), uint8(3), uint8(1))
	f.Add(uint8(7), int64(math.MinInt), "Ignore", int64(-time.Second), int64(time.Minute), uint8(2), uint8(0), uint8(4))
	f.Add(uint8(9), int64(math.MaxInt), "bogus", int64(testHeal), int64(testAfter), uint8(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, axisIdx uint8, replica int64, policy string, after, heal int64, replicas, hooks, zones uint8) {
		ax := &axes[int(axisIdx)%len(axes)]
		// Windows of up to ten minutes either way: long enough to order After
		// and Heal every way round, short enough that a flap ends.
		const window = int64(10 * time.Minute)
		in := Injection{
			Type: ax.fault, Replica: int(replica), Policy: policy,
			After: time.Duration(after % window), Heal: time.Duration(heal % window),
		}
		size := func(n uint8) int { return int(n % 6) }
		p := newFakePlatformOf(size(replicas), size(hooks), size(zones))
		healthy := newFakePlatformOf(size(replicas), size(hooks), size(zones)).state()

		loop, j := armed(p, in)
		loop.RunUntil(max(in.After, in.Heal, 0) + time.Minute)
		rep := j.Report()

		if !rep.Fired {
			if p.calls != 0 {
				t.Fatalf("%s never fired but touched the platform %d times: %v", in.Label(), p.calls, p.applied)
			}
			return
		}
		fam := &families[ax.family]
		var targets []string
		for i := 0; i < fam.targets(p); i++ {
			targets = append(targets, fam.name+"/"+ax.instance(p, i))
		}
		if !slices.Contains(targets, rep.Instance) {
			t.Fatalf("%s hit %q, not one of the platform's %v", in.Label(), rep.Instance, targets)
		}
		if rep.Healed && p.state() != healthy {
			t.Fatalf("%s healed at %v but left the platform %q, want %q", in.Label(), rep.HealedAt, p.state(), healthy)
		}
	})
}
