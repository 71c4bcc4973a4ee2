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
		{"-count", "0"},
		{"-size", "0"},
		{"-count", "300"},
		{"-scenario", "pingpong", "-rounds", "0"},
		{"-src", "2", "-dst", "2"},
		{"-interval", "0"},
		{"-scenario", "nope"},
	} {
		os.Args = append([]string{"tcatop"}, args...)
		flag.CommandLine = flag.NewFlagSet("tcatop", flag.ContinueOnError)
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
