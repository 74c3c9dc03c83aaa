package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles runs the flags end to end: both files exist
// and are non-empty after stop, and no flag means no file and no error.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", p, err)
		}
	}

	off := Register(flag.NewFlagSet("off", flag.ContinueOnError))
	stop, err = off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsBadPath returns an error, not a panic, for a profile
// that cannot be created.
func TestStartReportsBadPath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start succeeded on an uncreatable path")
	}
}
