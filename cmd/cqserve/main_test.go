package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", ":9090", "-snapshot", "a.cqs", "-snapshot", "b.cqs", "-flush-batch", "16", "-drain", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9090" || cfg.flushBatch != 16 || cfg.drain != 2*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(cfg.snapshots) != 2 || cfg.snapshots[0] != "a.cqs" || cfg.snapshots[1] != "b.cqs" {
		t.Fatalf("snapshots = %v", cfg.snapshots)
	}
}

func TestParseFlagsPositionalSnapshots(t *testing.T) {
	cfg, err := parseFlags([]string{"-snapshot", "a.cqs", "b.cqs", "c.cqs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.snapshots) != 3 {
		t.Fatalf("snapshots = %v", cfg.snapshots)
	}
	if cfg.addr != ":8080" || cfg.drain != 10*time.Second {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestParseFlagsRequiresSnapshots(t *testing.T) {
	_, err := parseFlags(nil)
	if err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("err = %v, want usage error", err)
	}
}

func TestParseFlagsWorkerMode(t *testing.T) {
	// -join implies worker mode, and a worker may start with zero snapshots:
	// its registry fills through /v1/attach.
	cfg, err := parseFlags([]string{"-join", "http://coord:8070", "-advertise", "http://me:9999", "-spool", "/tmp/spool"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.worker || cfg.join != "http://coord:8070" || cfg.advertise != "http://me:9999" || cfg.spool != "/tmp/spool" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if len(cfg.snapshots) != 0 {
		t.Fatalf("snapshots = %v", cfg.snapshots)
	}
	// Bare -worker (no coordinator) also allows an empty registry.
	cfg, err = parseFlags([]string{"-worker"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.worker || cfg.join != "" {
		t.Fatalf("cfg = %+v", cfg)
	}
}
