package ccache

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/driver"
)

// Every field of driver.Options and comm.Options is either keyed —
// Fingerprint renders it, so flipping it must move KeyOf — or excluded
// with the reason it cannot change the artifact. A field in neither
// list fails TestFingerprintCoversEveryField: a new option that forgot
// to join the fingerprint would silently alias two different artifacts.
var (
	keyedOptions = map[string]func(*driver.Options){
		"Configs":       func(o *driver.Options) { o.Configs = map[string]int64{"n": 7} },
		"Level":         func(o *driver.Options) { o.Level = core.Baseline },
		"Comm":          func(o *driver.Options) { o.Comm = nil },
		"Plan":          func(o *driver.Options) { o.Plan = &core.PlanSpec{Version: core.SpecVersion} },
		"ScalarReplace": func(o *driver.Options) { o.ScalarReplace = true },
		"Check":         func(o *driver.Options) { o.Check = true },
		"NoProve":       func(o *driver.Options) { o.NoProve = true },
		"ProveFault":    func(o *driver.Options) { o.ProveFault = 3 },
		"NoRace":        func(o *driver.Options) { o.NoRace = true },
		"Backend":       func(o *driver.Options) { o.Backend = driver.BackendGo },
	}
	excludedOptions = map[string]string{
		"Hooks": "observes a compilation without changing its artifact",
	}
	keyedComm = map[string]func(*comm.Options){
		"Procs":    func(c *comm.Options) { c.Procs = 8 },
		"Strategy": func(c *comm.Options) { c.Strategy = comm.FavorComm },
	}
)

func fingerprintBase() driver.Options {
	co := comm.DefaultOptions(4)
	return driver.Options{Level: core.C2F3, Comm: &co}
}

func TestFingerprintCoversEveryField(t *testing.T) {
	const src = "program p;"
	base := KeyOf(src, fingerprintBase())

	ot := reflect.TypeOf(driver.Options{})
	for i := 0; i < ot.NumField(); i++ {
		name := ot.Field(i).Name
		flip, keyed := keyedOptions[name]
		reason, excluded := excludedOptions[name]
		switch {
		case keyed == excluded:
			t.Errorf("driver.Options.%s must be in exactly one of keyedOptions and excludedOptions", name)
		case excluded && reason == "":
			t.Errorf("driver.Options.%s is excluded without a reason", name)
		case keyed:
			opt := fingerprintBase()
			flip(&opt)
			if KeyOf(src, opt) == base {
				t.Errorf("flipping driver.Options.%s does not move KeyOf", name)
			}
		}
	}
	if n := len(keyedOptions) + len(excludedOptions); n != ot.NumField() {
		t.Errorf("%d listed fields, driver.Options has %d: a list names a field that is gone", n, ot.NumField())
	}

	ct := reflect.TypeOf(comm.Options{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		flip, keyed := keyedComm[name]
		if !keyed {
			t.Errorf("comm.Options.%s is not in keyedComm", name)
			continue
		}
		opt := fingerprintBase()
		flip(opt.Comm)
		if KeyOf(src, opt) == base {
			t.Errorf("flipping comm.Options.%s does not move KeyOf", name)
		}
	}
	if len(keyedComm) != ct.NumField() {
		t.Errorf("%d listed fields, comm.Options has %d", len(keyedComm), ct.NumField())
	}

	// Hooks really is inert.
	opt := fingerprintBase()
	opt.Hooks = driver.Hooks{PhaseStart: func(string) {}}
	if KeyOf(src, opt) != base {
		t.Error("Hooks moved KeyOf")
	}
}

// TestGoldenKeys pins content addresses captured at the commit before
// the request resolver was unified: disk tiers written by older
// binaries, ring ownership and bench/'s own KeyOf calls all depend on
// these bytes never moving.
func TestGoldenKeys(t *testing.T) {
	const heat = "program heat;\nconfig var n : integer = 8;\n"
	comm4 := comm.DefaultOptions(4)
	favor := comm.DefaultOptions(2)
	favor.Strategy = comm.FavorComm
	plan := &core.PlanSpec{Version: core.SpecVersion, Realign: true, Note: "ignored",
		Blocks: []core.BlockSpec{{Block: 0, Clusters: [][]int{{0, 1}}, Contract: []string{"T"}}}}
	n32 := map[string]int64{"n": 32}

	cases := []struct {
		name string
		key  Key
		want string
	}{
		{"zero options", KeyOf("", driver.Options{}), "7775231964083e6703b3939311c1f1f2c26ca771ac7bb9bb243d38af3df73928"},
		{"default level", KeyOf(heat, driver.Options{Level: core.C2F3}), "4d0fe3123130e3f49d0c57d8ddaecd0341a0898f3029bcd3610481143a501ff9"},
		{"vm backend spelled", KeyOf(heat, driver.Options{Level: core.C2F3, Backend: driver.BackendVM}), "4d0fe3123130e3f49d0c57d8ddaecd0341a0898f3029bcd3610481143a501ff9"},
		{"configs sorted", KeyOf(heat, driver.Options{Level: core.C2F4, Configs: map[string]int64{"steps": 3, "n": 32}}), "e7fa179c182274a6e2b0b1075a135ab29729455a638b7cf973506313acd22916"},
		{"scalarrep+check", KeyOf(heat, driver.Options{Level: core.C2, ScalarReplace: true, Check: true}), "9ef88790abf671b973efa9b41fda60774c8cc44c2c246a33b3594f46f4c9aeae"},
		{"noprove", KeyOf(heat, driver.Options{Level: core.C2F3, NoProve: true}), "baeb2988e1cb8850c650b4f3a7c5d83df4396c3b43aee9fd157afd9103d10acc"},
		{"provefault", KeyOf(heat, driver.Options{Level: core.C2F3, ProveFault: 2}), "1d561059c4381b071e898d8d9bc97da66f4c20578d4f7d9ff5c769aa346691a2"},
		{"norace p=4", KeyOf(heat, driver.Options{Level: core.C2F3, NoRace: true, Comm: &comm4}), "13e95c9f9276b8153fa9aec1b02d67d9c6b0ef1d7ab473d0296d023e424c4237"},
		{"p=4 default comm", KeyOf(heat, driver.Options{Level: core.C2F3, Configs: n32, Comm: &comm4}), "4ef3d0d5b3e3fc85a6fd25d069cb356b26f74495d1e97d63bf381a6dc291a359"},
		{"p=2 favor-comm", KeyOf(heat, driver.Options{Level: core.Baseline, Comm: &favor}), "f59f478496c264d0803865e131de59328be1a2a80258d01967d96c4562a2f822"},
		{"plan", KeyOf(heat, driver.Options{Plan: plan, Configs: n32}), "def6eb8de97843e4ae3db214e442db61f401c9816a63a5060ec0d197b03b637d"},
		{"native kind", KeyOfKind(heat, driver.Options{Level: core.C2F3, Backend: driver.BackendGo}, ArtifactNative), "7f65ad7a82207d6700a3cf85c2f0606b1ae735dfbd9c4a0133186a3a1690171d"},
		{"lazy kind", KeyOfKind("v0 := v1 + v2", driver.Options{Level: core.C2F3}, ArtifactLazy), "39dcbd598f7bc9b7c73bbf2e295437b8e6d5820dc371c80810adc9bac515e07b"},
		{"tune extra", KeyOfExtra(heat, driver.Options{Level: core.C2F4, Configs: n32},
			"tune:machine=t3e,model=cycle,beam=0,exh=0,states=0,measure=false,topk=0"), "589fd899517f82d3dd63d4595e87e4309e16a23a84f062bcc119598e9a25b64e"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
