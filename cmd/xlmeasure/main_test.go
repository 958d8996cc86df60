package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestServeRefusesRunFlags: with -serve, a flag the server would
// ignore is refused by name, even when it repeats the default; the
// server's own flags and the profilers are accepted.
func TestServeRefusesRunFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // "" = accepted
	}{
		{[]string{"-serve"}, ""},
		{[]string{"-serve", "-addr", "127.0.0.1:0", "-checkpoint", "cells.json", "-checkpoint-every", "1m",
			"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, ""},
		{[]string{"-serve", "-seed", "7"}, "-seed"},
		{[]string{"-serve", "-seed", "42"}, "-seed"},
		{[]string{"-n", "50", "-serve"}, "-n"},
		{[]string{"-serve", "-methods", "hijack", "-trials", "2"}, "-methods"},
		{[]string{"-serve", "-downgrade"}, "-downgrade"},
		{[]string{"-serve", "-format", "json"}, "-format"},
		{[]string{"-serve", "-quiet"}, "-quiet"},
		{[]string{"-serve", "-exp", "table5"}, "-exp"},
	} {
		fs := flag.NewFlagSet("xlmeasure", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var o options
		o.bind(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !o.serve {
			t.Fatalf("%v: -serve not parsed", tc.args)
		}
		err := serveFlagError(fs)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%v refused: %v", tc.args, err)
		case tc.bad != "" && (err == nil || !strings.Contains(err.Error(), "flag "+tc.bad+" ")):
			t.Errorf("%v: got %v, want an error naming %s", tc.args, err, tc.bad)
		}
	}
}
