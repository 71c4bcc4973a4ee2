package main

import (
	"flag"
	"os"
	"testing"
)

// Bad workload flags exit 2 with a one-line error, never a panic.
func TestBadFlagsExitTwo(t *testing.T) {
	defer func(args []string, fs *flag.FlagSet) { os.Args, flag.CommandLine = args, fs }(os.Args, flag.CommandLine)
	for _, args := range [][]string{
		{"-scenario", "chain-dma", "-count", "100000"},
		{"-scenario", "chain-dma", "-count", "300"},
		{"-scenario", "chain-dma", "-chains", "0"},
		{"-rounds", "0"},
		{"-nodes", "1"},
		{"-scenario", "nope"},
	} {
		os.Args = append([]string{"tcapath"}, args...)
		flag.CommandLine = flag.NewFlagSet("tcapath", flag.ContinueOnError)
		code := func() int {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%v: panic: %v", args, p)
				}
			}()
			return run()
		}()
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
