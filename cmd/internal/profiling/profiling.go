// Package profiling gives the commands their -cpuprofile and -memprofile
// flags. It lives under cmd/ with the rest of the wall-clock code: the
// simulation packages stay free of it, and profiling a run never changes
// what the run prints.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations parsed from the command line.
type Flags struct {
	cpu, mem *string
}

// Register defines -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of this process to `file` (shard workers are not profiled)"),
		mem: fs.String("memprofile", "", "write an allocation profile of this process to `file` at exit"),
	}
}

// Start begins CPU profiling if asked. The returned stop ends it and writes
// the allocation profile; call it once, on the command's normal exit path.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if *f.mem == "" {
			return nil
		}
		mem, err := os.Create(*f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects finished work
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			mem.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return mem.Close()
	}, nil
}
