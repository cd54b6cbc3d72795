// Package soak gives the module's property tests one quick.Config, so
// that tier-1 is the same test on every run: each site names a fixed
// seed, and a red run reproduces from the test's name alone. The
// time-seeded search those tests used to be on every run is behind the
// -soak test flag (make soak), which prints each seed before using it.
// Only test files import this package.
package soak

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var soak = flag.Bool("soak", false, "property tests draw a time seed, printed first, and run 20x the cases")

// Config is n cases drawn from seed; under -soak, 20n cases drawn from
// the clock.
func Config(t testing.TB, n int, seed int64) *quick.Config {
	if *soak {
		seed, n = time.Now().UnixNano(), 20*n
		fmt.Printf("%s: -soak seed %d, %d cases\n", t.Name(), seed, n)
	}
	return &quick.Config{MaxCount: n, Rand: rand.New(rand.NewSource(seed))}
}
