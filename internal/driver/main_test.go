package driver_test

import (
	"os"
	"testing"

	"repro/internal/difftest/matrix"
)

// TestMain removes the artifact store the native cells build into.
func TestMain(m *testing.M) {
	code := m.Run()
	matrix.RemoveStore()
	os.Exit(code)
}
