package mserve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire/wiretest"
)

// TestRegistryRollbackPastBottom walks the activation stack all the way
// down and keeps going: every extra Rollback must fail with
// ErrCannotRollback, leave the bottom version active, and leave the
// registry fully operational (Put still works, on-disk state still
// reopens).
func TestRegistryRollbackPastBottom(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := int64(1); i <= 3; i++ {
		if _, err := r.Put(KindNN, fmt.Sprintf("m%d", i), nnModelBytes(t, i, 4)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for want := uint64(2); want >= 1; want-- {
		v, err := r.Rollback()
		if err != nil {
			t.Fatalf("rollback to %d: %v", want, err)
		}
		if v.Number != want {
			t.Fatalf("rolled back to %d, want %d", v.Number, want)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Rollback(); !errors.Is(err, ErrCannotRollback) {
			t.Fatalf("rollback past bottom #%d: %v", i+1, err)
		}
		if a, ok := r.Active(); !ok || a.Number != 1 {
			t.Fatalf("active after failed rollback: %+v ok=%v", a, ok)
		}
	}
	// The registry is not wedged: new versions land.
	if v, err := r.Put(KindNN, "m4", nnModelBytes(t, 4, 4)); err != nil || v.Number != 4 {
		t.Fatalf("put after failed rollbacks: %+v, %v", v, err)
	}
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if a, ok := r2.Active(); !ok || a.Number != 4 {
		t.Fatalf("reopened active: %+v ok=%v", a, ok)
	}
}

// TestServerConcurrentDeployRollback hammers the server's two control
// operations from racing goroutines while readers spin on the hot-swap
// Deployment — the exact interleaving the online-learning controller and
// a human operator can produce. Run under -race this pins the locking;
// functionally it pins that the survivor state is coherent: the
// Deployment serves exactly the registry's active version.
func TestServerConcurrentDeployRollback(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	defer srv.Shutdown(0)
	if _, err := srv.Deploy(KindNN, "base", nnModelBytes(t, 1, 4)); err != nil {
		t.Fatalf("base deploy: %v", err)
	}

	const deployers, rollers, deploysEach = 4, 2, 8
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Readers: the serving path's view must always be a live artifact.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := srv.Deployment().Load()
				if snap == nil || snap.Model == nil || snap.Version == 0 {
					t.Error("deployment exposed a nil snapshot")
					return
				}
				if got := snap.Model.Version.Number; got != snap.Version {
					t.Errorf("deployment version %d serves artifact %d", snap.Version, got)
					return
				}
			}
		}()
	}
	for i := 0; i < deployers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for n := 0; n < deploysEach; n++ {
				seed := int64(100 + worker*deploysEach + n)
				name := fmt.Sprintf("w%d-n%d", worker, n)
				if _, err := srv.Deploy(KindNN, name, nnModelBytes(t, seed, 4)); err != nil {
					t.Errorf("deploy %s: %v", name, err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < rollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < deploysEach; n++ {
				// Racing a concurrent deployer, hitting bottom is legal;
				// anything else is not.
				if _, err := srv.Rollback(); err != nil && !errors.Is(err, ErrCannotRollback) {
					t.Errorf("rollback: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	active, ok := reg.Active()
	if !ok {
		t.Fatal("no active version after the storm")
	}
	snap := srv.Deployment().Load()
	if snap.Version != active.Number || snap.Model.Version.Number != active.Number {
		t.Fatalf("deployment serves v%d (artifact v%d), registry active is v%d",
			snap.Version, snap.Model.Version.Number, active.Number)
	}
	if st := srv.Stats(); st.Deploys != uint64(1+deployers*deploysEach) {
		t.Fatalf("deploys = %d, want %d", st.Deploys, 1+deployers*deploysEach)
	}
}

// TestRegistryCorruptManifestRecovery corrupts the MANIFEST in several
// ways and requires a clean ErrCorruptRegistry from OpenRegistry each
// time — never a panic, never a half-loaded registry — and that
// restoring the manifest brings the store back with its objects intact.
func TestRegistryCorruptManifestRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	model := nnModelBytes(t, 5, 4)
	if _, err := r.Put(KindNN, "keep", model); err != nil {
		t.Fatalf("put: %v", err)
	}
	manifest := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}

	corruptions := []struct {
		name string
		data []byte
	}{
		{"truncated line", good[:len(good)/2]},
		{"garbage line", append(append([]byte{}, good...), []byte("not\ta\tmanifest\n")...)},
		{"non-numeric version", []byte("x\t1\tdeadbeef\t0\t10\t0\tm\n")},
		{"non-numeric size", []byte(strings.Replace(string(good), "\t"+fmt.Sprint(len(model))+"\t", "\tbig\t", 1))},
	}
	for _, c := range corruptions {
		if err := os.WriteFile(manifest, c.data, 0o644); err != nil {
			t.Fatalf("%s: write: %v", c.name, err)
		}
		if _, err := OpenRegistry(dir); !errors.Is(err, ErrCorruptRegistry) {
			t.Errorf("%s: OpenRegistry = %v, want ErrCorruptRegistry", c.name, err)
		}
	}

	// An ACTIVE entry pointing outside the manifest is corruption too.
	if err := os.WriteFile(manifest, good, 0o644); err != nil {
		t.Fatalf("restore manifest: %v", err)
	}
	active := filepath.Join(dir, activeName)
	if err := os.WriteFile(active, []byte("99\n"), 0o644); err != nil {
		t.Fatalf("corrupt active: %v", err)
	}
	if _, err := OpenRegistry(dir); !errors.Is(err, ErrCorruptRegistry) {
		t.Errorf("dangling ACTIVE: OpenRegistry = %v, want ErrCorruptRegistry", err)
	}

	// Recovery: restore the metadata and everything is still there —
	// the content-addressed objects never went anywhere.
	if err := os.WriteFile(active, []byte("1\n"), 0o644); err != nil {
		t.Fatalf("restore active: %v", err)
	}
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatalf("reopen after recovery: %v", err)
	}
	art, err := r2.ActiveArtifact()
	if err != nil {
		t.Fatalf("artifact after recovery: %v", err)
	}
	if string(art.Data) != string(model) {
		t.Fatal("artifact bytes differ after recovery")
	}
	if _, err := r2.Put(KindNN, "fresh", nnModelBytes(t, 6, 4)); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
}

// TestRegistryTornManifestTail cuts the MANIFEST line of an unreturned
// Put at every byte. Put fsyncs that line before it pushes ACTIVE, so
// each cut is a crash before the deploy was acknowledged: OpenRegistry
// must drop the torn tail and come back with every acknowledged version
// and the same active one, and the next Put must start on a clean line
// that a further reopen reads back.
func TestRegistryTornManifestTail(t *testing.T) {
	tmpl := t.TempDir()
	r, err := OpenRegistry(tmpl)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := int64(1); i <= 2; i++ {
		if _, err := r.Put(KindNN, fmt.Sprintf("m%d", i), nnModelBytes(t, i, 4)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	read := func(dir, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	acked, active := read(tmpl, manifestName), read(tmpl, activeName)
	if _, err := r.Put(KindNN, "m3", nnModelBytes(t, 3, 4)); err != nil {
		t.Fatalf("put 3: %v", err)
	}
	tail := read(tmpl, manifestName)[len(acked):]
	objects, err := os.ReadDir(filepath.Join(tmpl, objectsName))
	if err != nil {
		t.Fatal(err)
	}

	cuts := 0
	wiretest.Each(tail, func(m wiretest.Mutation) {
		if !m.Cut {
			return
		}
		cuts++
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, objectsName), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, o := range objects {
			name := filepath.Join(objectsName, o.Name())
			if err := os.WriteFile(filepath.Join(dir, name), read(tmpl, name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		manifest := append(append([]byte(nil), acked...), m.Data...)
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, activeName), active, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := OpenRegistry(dir)
		if err != nil {
			t.Errorf("cut at %d: OpenRegistry: %v", m.At, err)
			return
		}
		if got := r.TornTail(); got != m.At {
			t.Errorf("cut at %d: TornTail = %d", m.At, got)
		}
		for n := uint64(1); n <= 2; n++ {
			if _, err := r.Artifact(n); err != nil {
				t.Errorf("cut at %d: acknowledged version %d: %v", m.At, n, err)
			}
		}
		if a, ok := r.Active(); !ok || a.Number != 2 {
			t.Errorf("cut at %d: active %+v ok=%v, want 2", m.At, a, ok)
		}
		v, err := r.Put(KindNN, "after", nnModelBytes(t, 4, 4))
		if err != nil || v.Number != 3 {
			t.Errorf("cut at %d: put after reopen: %+v, %v", m.At, v, err)
			return
		}
		r2, err := OpenRegistry(dir)
		if err != nil {
			t.Errorf("cut at %d: reopen after put: %v", m.At, err)
			return
		}
		if a, ok := r2.Active(); !ok || a.Number != 3 || a.Name != "after" || r2.TornTail() != 0 {
			t.Errorf("cut at %d: reopened active %+v ok=%v torn=%d, want version 3 \"after\" and no torn tail",
				m.At, a, ok, r2.TornTail())
		}
	})
	if cuts != len(tail) {
		t.Fatalf("%d cuts of a %d-byte line", cuts, len(tail))
	}
}
