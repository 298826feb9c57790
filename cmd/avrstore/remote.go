package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"avr/internal/store"
	"avr/internal/vec"
)

// Remote pack/verify: the same manifest-driven ground truth as the
// local subcommands, but spoken over HTTP to a live avrd or avrrouter.
// Against a router, pack lands every key on two replicas and verify
// proves the read-any contract offline: whatever replica serves a key,
// every value must sit within the manifest t1.

// resolveAddr merges -addr and -addr-file.
func resolveAddr(addr, addrFile string) (string, error) {
	if addrFile == "" {
		return addr, nil
	}
	b, err := os.ReadFile(addrFile)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

func remoteClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second}
}

// packRemote generates the workload vectors and PUTs each one through
// the daemon, recording the manifest locally. The daemon quantizes
// thresholds onto the codec-pool grid, so m carries the quantized t1 and
// verify checks the bound the server actually enforced.
func packRemote(out io.Writer, addr, manifestOut string, m manifest) error {
	base := "http://" + addr
	client := remoteClient()
	for _, e := range m.Entries {
		vals, err := e.gen(m.Width)
		if err != nil {
			return err
		}
		url := fmt.Sprintf("%s/v1/store/put?key=%s&width=%d", base, e.Key, m.Width)
		req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(vals.AppendLE(nil)))
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("pack: put %s: %w", e.Key, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("pack: put %s: %d: %s", e.Key, resp.StatusCode, bytes.TrimSpace(body))
		}
		var res store.PutResult
		if err := json.Unmarshal(body, &res); err != nil {
			return fmt.Errorf("pack: put %s: bad response: %w", e.Key, err)
		}
		line := fmt.Sprintf("packed %s: %d values (%s), %d blocks (%d lossless), ratio %.2f",
			e.Key, res.Values, e.Dist, res.Blocks, res.LosslessBlocks, res.Ratio)
		if reps := resp.Header.Get("X-AVR-Replicas"); reps != "" {
			line += ", " + reps + " replicas"
		}
		fmt.Fprintln(out, line)
	}
	if err := m.write(manifestOut); err != nil {
		return err
	}
	fmt.Fprintf(out, "packed %d keys via %s, manifest %s (t1 %g)\n", len(m.Entries), addr, manifestOut, m.T1)
	return nil
}

// verifyRemote checks every manifest key through the serving path:
// enumerate keys via /v1/store/key (fanned out across the shards on a
// router), then fetch each vector and bound-check it at the manifest
// t1. Remote verification cannot see the block table, so the lossless
// bit-exactness refinement of local verify does not apply — the t1
// bound is the contract the wire promises.
func verifyRemote(out io.Writer, addr, manifestIn string, allowPartial bool) error {
	m, err := readManifest(manifestIn)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	base := "http://" + addr
	client := remoteClient()

	// The key listing must cover every manifest key — on a router this
	// exercises the fan-out/union path and catches shards that lost
	// their data entirely.
	resp, err := client.Get(base + "/v1/store/key")
	if err != nil {
		return fmt.Errorf("verify: listing keys: %w", err)
	}
	var kl struct {
		Keys []string `json:"keys"`
	}
	kerr := json.NewDecoder(resp.Body).Decode(&kl)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || kerr != nil {
		return fmt.Errorf("verify: listing keys: status %d, err %v", resp.StatusCode, kerr)
	}
	live := make(map[string]bool, len(kl.Keys))
	for _, k := range kl.Keys {
		live[k] = true
	}

	return verifyEach(out, m, " via "+addr, func(e manifestEntry) (int, error) {
		if !live[e.Key] {
			return 0, errors.New("missing from the served key listing")
		}
		return verifyRemoteEntry(client, base, m, e, allowPartial)
	})
}

// verifyRemoteEntry fetches one key, checks it against regenerated ground
// truth and returns the number of values served: fewer than written only
// for a crash-truncated prefix (206).
func verifyRemoteEntry(client *http.Client, base string, m manifest, e manifestEntry, allowPartial bool) (int, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/store/get?key=%s", base, e.Key))
	if err != nil {
		return 0, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return 0, rerr
	}
	incomplete := resp.StatusCode == http.StatusPartialContent
	if resp.StatusCode != http.StatusOK && !incomplete {
		return 0, fmt.Errorf("get: %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if incomplete && !allowPartial {
		return 0, errors.New("vector incomplete; rerun with -allow-partial to accept the prefix")
	}

	want, err := e.gen(m.Width)
	if err != nil {
		return 0, err
	}
	vw := m.Width / 8
	if len(body)%vw != 0 || len(body) > vw*want.Len() {
		return 0, fmt.Errorf("get returned %d bytes, want at most %d in %d-byte values",
			len(body), vw*want.Len(), vw)
	}
	if !incomplete && len(body) != vw*want.Len() {
		return 0, fmt.Errorf("get returned %d bytes, want %d", len(body), vw*want.Len())
	}
	got := vec.Vec{Width: m.Width}.FromLE(body)
	return got.Len(), store.WithinT1(got, want.Slice(0, got.Len()), m.T1)
}
