package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"instrsample/internal/vm"
)

// smallResult builds a distinct result whose serialized size the tests
// can account for exactly.
func smallResult(n int64) *CellResult {
	return &CellResult{Stats: vm.Stats{Cycles: uint64(n)}, Return: n, Work: n}
}

// entryBytes is the exact on-disk size of key's entry.
func entryBytes(t *testing.T, c *Cache, key string) int64 {
	t.Helper()
	data, ok := c.GetAddr(c.Addr(key))
	if !ok {
		t.Fatalf("entry for %q not found", key)
	}
	return int64(len(data))
}

func diskEntries(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if addr, ok := strings.CutSuffix(e.Name(), ".json"); ok && ValidAddr(addr) {
			info, _ := e.Info()
			out[addr] = info.Size()
		}
	}
	return out
}

// TestCacheLRUExactAccounting stores entries of known sizes under a byte
// budget and checks that the in-memory accounting matches the disk
// exactly at every step, that eviction drops precisely the
// least-recently-used entries, and that a Load refreshes recency.
func TestCacheLRUExactAccounting(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCacheID(dir, "test-build")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"cell a", "cell b", "cell c"}
	for i, k := range keys {
		c.Store(k, smallResult(int64(i+1)))
	}
	var sizes []int64
	var total int64
	for i, k := range keys {
		n := entryBytes(t, c, k)
		sizes = append(sizes, n)
		total += n
		// Pin mtimes so the cold-start scan's recency order is
		// unambiguous regardless of filesystem timestamp granularity.
		at := time.Now().Add(time.Duration(i-len(keys)) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, c.Addr(k)+".json"), at, at); err != nil {
			t.Fatal(err)
		}
	}

	// Budget exactly the current contents: nothing may be evicted.
	if err := c.SetMaxBytes(total); err != nil {
		t.Fatal(err)
	}
	if got := c.Bytes(); got != total {
		t.Fatalf("Bytes() = %d, want %d", got, total)
	}
	if got := c.Entries(); got != 3 {
		t.Fatalf("Entries() = %d, want 3", got)
	}

	// Refresh "cell a" (oldest by mtime), then store a fourth entry that
	// must evict exactly the now-least-recent entries — "cell b" first —
	// until the total fits.
	if _, ok := c.Load(keys[0]); !ok {
		t.Fatal("cell a should load")
	}
	c.Store("cell d", smallResult(4))
	d := entryBytes(t, c, "cell d")
	// After storing d (total+d > budget), eviction drops b, then c if
	// still over, never a (most recent) or d (just stored).
	want := total + d
	evicted := []string{}
	for _, victim := range []struct {
		key  string
		size int64
	}{{keys[1], sizes[1]}, {keys[2], sizes[2]}} {
		if want <= total {
			break
		}
		want -= victim.size
		evicted = append(evicted, victim.key)
	}
	if got := c.Bytes(); got != want {
		t.Fatalf("Bytes() after eviction = %d, want %d (evicted %v)", got, want, evicted)
	}
	for _, k := range evicted {
		if _, ok := c.Load(k); ok {
			t.Fatalf("%q should have been evicted", k)
		}
	}
	if _, ok := c.Load(keys[0]); !ok {
		t.Fatal("cell a (refreshed) must survive eviction")
	}
	if _, ok := c.Load("cell d"); !ok {
		t.Fatal("cell d (just stored) must survive eviction")
	}

	// The in-memory accounting must equal the bytes on disk exactly.
	disk := diskEntries(t, dir)
	var diskTotal int64
	for _, n := range disk {
		diskTotal += n
	}
	if diskTotal != c.Bytes() {
		t.Fatalf("disk total %d != accounted %d", diskTotal, c.Bytes())
	}
	if len(disk) != c.Entries() {
		t.Fatalf("disk entries %d != accounted %d", len(disk), c.Entries())
	}
}

// TestCacheLRUOverwriteAccounting re-stores a key and checks the delta
// accounting (no double count) stays exact.
func TestCacheLRUOverwriteAccounting(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCacheID(dir, "test-build")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetMaxBytes(1 << 20); err != nil {
		t.Fatal(err)
	}
	c.Store("k", smallResult(1))
	first := c.Bytes()
	big := smallResult(2)
	big.Output = make([]int64, 64)
	for i := range big.Output {
		big.Output[i] = int64(i) + 1e12
	}
	c.Store("k", big)
	if got := c.Entries(); got != 1 {
		t.Fatalf("Entries() = %d, want 1", got)
	}
	if got, want := c.Bytes(), entryBytes(t, c, "k"); got != want || got == first {
		t.Fatalf("Bytes() = %d, want %d (and != first store %d)", got, want, first)
	}
}

// TestCacheSetMaxBytesEvictsExisting arms a budget below the current
// contents and checks the oldest-modified entries go first.
func TestCacheSetMaxBytesEvictsExisting(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCacheID(dir, "test-build")
	if err != nil {
		t.Fatal(err)
	}
	c.Store("old", smallResult(1))
	c.Store("new", smallResult(2))
	// Make mtimes unambiguous regardless of filesystem resolution.
	past := time.Now().Add(-time.Minute)
	if err := os.Chtimes(filepath.Join(dir, c.Addr("old")+".json"), past, past); err != nil {
		t.Fatal(err)
	}
	newSize := entryBytes(t, c, "new")
	if err := c.SetMaxBytes(newSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("old"); ok {
		t.Fatal("old entry should have been evicted by SetMaxBytes")
	}
	if _, ok := c.Load("new"); !ok {
		t.Fatal("new entry should survive")
	}
	if got := c.Bytes(); got != newSize {
		t.Fatalf("Bytes() = %d, want %d", got, newSize)
	}
}

// TestCASRoundTripAndIntegrity pushes an entry through the raw CAS
// surface: GetAddr/PutAddr round-trip byte-identically, addresses are
// portable via CASAddr, and a tampered payload is rejected.
func TestCASRoundTripAndIntegrity(t *testing.T) {
	c, err := OpenCacheID(t.TempDir(), "build-x")
	if err != nil {
		t.Fatal(err)
	}
	res := smallResult(7)
	c.Store("the cell", res)
	addr := c.Addr("the cell")
	if addr != CASAddr("build-x", "the cell") {
		t.Fatal("Addr must equal the pure CASAddr form")
	}
	data, ok := c.GetAddr(addr)
	if !ok {
		t.Fatal("GetAddr miss after Store")
	}
	if err := VerifyCAS("build-x", addr, data); err != nil {
		t.Fatalf("VerifyCAS rejected a genuine entry: %v", err)
	}
	dec, key, err := DecodeCAS(data)
	if err != nil || key != "the cell" || dec.Return != 7 {
		t.Fatalf("DecodeCAS = (%v, %q, %v), want return 7 key \"the cell\"", dec, key, err)
	}

	// A second store receiving the payload must accept it verbatim...
	c2, err := OpenCacheID(t.TempDir(), "build-x")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.PutAddr(addr, data); err != nil {
		t.Fatalf("PutAddr rejected a genuine payload: %v", err)
	}
	got, ok := c2.GetAddr(addr)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("CAS round trip not byte-identical")
	}
	if r2, ok := c2.Load("the cell"); !ok || r2.Return != 7 {
		t.Fatal("replicated entry must serve Load on the receiving node")
	}

	// ...and reject tampering: flip the embedded cell key so the payload
	// no longer hashes to its claimed address.
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["cell"] = "someone else's cell"
	forged, _ := json.Marshal(m)
	if err := c2.PutAddr(addr, forged); err == nil {
		t.Fatal("PutAddr accepted a payload whose cell key does not hash to the address")
	}
	// Cross-build entries are also integrity mismatches by construction.
	c3, err := OpenCacheID(t.TempDir(), "build-y")
	if err != nil {
		t.Fatal(err)
	}
	if err := c3.PutAddr(addr, data); err == nil {
		t.Fatal("PutAddr accepted an entry addressed under a different build ID")
	}
}

// TestPutAddrErrorClasses: PutAddr's integrity failures wrap
// ErrCASIntegrity and a store write failure does not, so a network CAS
// can answer the sender's fault and its own differently.
func TestPutAddrErrorClasses(t *testing.T) {
	c, err := OpenCacheID(t.TempDir(), "build-x")
	if err != nil {
		t.Fatal(err)
	}
	c.Store("the cell", smallResult(7))
	addr := c.Addr("the cell")
	data, _ := c.GetAddr(addr)

	other, err := OpenCacheID(t.TempDir(), "build-y")
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"cross-build": data,
		"no cell key": []byte(`{"return":1}`),
		"undecodable": []byte(`not json`),
	} {
		if err := other.PutAddr(addr, payload); !errors.Is(err, ErrCASIntegrity) {
			t.Errorf("%s: PutAddr error %v, want ErrCASIntegrity", name, err)
		}
	}

	dir := t.TempDir()
	broken, err := OpenCacheID(dir, "build-x")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err = broken.PutAddr(addr, data)
	if err == nil || errors.Is(err, ErrCASIntegrity) {
		t.Errorf("write failure: PutAddr error %v, want a non-integrity error", err)
	}
}

// TestValidAddr pins the address syntax gate.
func TestValidAddr(t *testing.T) {
	good := CASAddr("id", "key")
	if !ValidAddr(good) {
		t.Fatalf("ValidAddr(%q) = false", good)
	}
	for _, bad := range []string{"", "..", "../../etc/passwd", strings.Repeat("g", 32),
		strings.Repeat("a", 31), strings.Repeat("a", 33), strings.ToUpper(good)} {
		if ValidAddr(bad) {
			t.Fatalf("ValidAddr(%q) = true", bad)
		}
	}
}
