package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// buildDir is where everything the benchmark writes lives, inside the
// checkout: built binaries, campaign stores and span files.
const buildDir = ".bench_build"

// env is one invocation's surroundings: the checkout it measures, the
// binaries built from it, and a scratch directory removed on close.
type env struct {
	root   string
	goofi  string
	goofid string
	victim string
	work   string
}

// findRoot walks up from the working directory to the goofi module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module goofi\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no goofi module (go.mod with `module goofi`) at or above the working directory: the benchmark builds the program it measures from source")
		}
		dir = parent
	}
}

// newEnv builds goofi, goofid and the matmul victim from the checkout's
// source (untimed; the go build cache makes repeats cheap) and creates
// the scratch directory.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/goofi", "./cmd/goofid", "./examples/victims/matmul")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build: %v\n%s", err, out)
	}
	workParent := filepath.Join(root, buildDir, "work")
	if err := os.MkdirAll(workParent, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workParent, "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		root:   root,
		goofi:  filepath.Join(bin, "goofi"),
		goofid: filepath.Join(bin, "goofid"),
		victim: filepath.Join(bin, "matmul"),
		work:   work,
	}, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// dir creates a fresh subdirectory of the scratch directory.
func (e *env) dir(pattern string) (string, error) {
	return os.MkdirTemp(e.work, pattern+"-")
}

// diskBytes sums the sizes of the regular files under the given paths.
func diskBytes(paths ...string) (int64, error) {
	var total int64
	for _, p := range paths {
		err := filepath.Walk(p, func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.Mode().IsRegular() {
				total += info.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
