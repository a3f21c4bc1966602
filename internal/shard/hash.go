package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"scooter/internal/store"
)

// LogicalHash fingerprints the user-visible logical state of a set of
// databases — a shard set, or a single unsharded oracle passed as a
// one-element slice — so the two can be compared for observational
// equality even though their physical layouts differ:
//
//   - User collections hash by content under their document ids, merged
//     across shards in id order. Harnesses that compare a sharded world to
//     an unsharded oracle assign ids explicitly, so the merged contents
//     are byte-identical when the worlds agree.
//   - "$spec" hashes by (text, epoch) only: the carrier document's own id
//     is a per-shard allocator artifact. Every database must contribute
//     the same value — a shard set straddling an epoch hashes differently
//     from any converged world.
//   - "$migrations" hashes by entry content (name, hash, commands,
//     applied, done, watermark), sorted by name, excluding the carrier
//     ids and the applied-at timestamps. Again every database must agree.
//   - "$shardtx" (coordinator bookkeeping, present only on shard 0 of a
//     sharded world) is excluded: it has no oracle counterpart.
//
// Empty collections are skipped, so a collection materialised on one
// shard but never populated does not distinguish the worlds.
func LogicalHash(dbs []*store.DB) (string, error) {
	h := sha256.New()

	names := map[string]bool{}
	for _, db := range dbs {
		for _, name := range db.CollectionNames() {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		switch name {
		case CoordinatorCollection:
			continue
		case SpecCollection:
			vals := distinct(dbs, name, specContent)
			if len(vals) > 0 {
				fmt.Fprintf(h, "!spec/%d\n", len(vals))
				for _, v := range vals {
					h.Write([]byte(v))
					h.Write([]byte{'\n'})
				}
			}
		case JournalCollection:
			vals := distinct(dbs, name, journalContent)
			if len(vals) > 0 {
				fmt.Fprintf(h, "!migrations/%d\n", len(vals))
				for _, v := range vals {
					h.Write([]byte(v))
					h.Write([]byte{'\n'})
				}
			}
		default:
			docs := mergedDocs(dbs, name)
			if len(docs) == 0 {
				continue
			}
			fmt.Fprintf(h, "!coll %s\n", name)
			for _, d := range docs {
				b, err := store.MarshalDoc(d)
				if err != nil {
					return "", fmt.Errorf("shard: hashing %s: %w", name, err)
				}
				fmt.Fprintf(h, "%d:", int64(d.ID()))
				h.Write(b)
				h.Write([]byte{'\n'})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// mergedDocs collects the named collection's documents across dbs in
// ascending id order (ties, which indicate an id-ownership violation,
// break by database index). Each database's Find is already id-ordered,
// so the lists are merged, not sorted.
func mergedDocs(dbs []*store.DB, name string) []store.Doc {
	lists := make([][]store.Doc, 0, len(dbs))
	for _, db := range dbs {
		if c, ok := db.Lookup(name); ok {
			lists = append(lists, c.Find())
		}
	}
	return mergeByID(lists, store.Doc.ID)
}

// distinct renders the named collection on every database holding a
// non-empty copy and returns the sorted distinct renderings: a converged
// world yields exactly one.
func distinct(dbs []*store.DB, name string, render func(*store.Collection) string) []string {
	seen := map[string]bool{}
	for _, db := range dbs {
		c, ok := db.Lookup(name)
		if !ok || c.Len() == 0 {
			continue
		}
		seen[render(c)] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// specContent renders a $spec collection as its logical content.
func specContent(c *store.Collection) string {
	docs := c.Find()
	if len(docs) == 0 {
		return ""
	}
	text, _ := docs[0]["spec"].(string)
	epoch, _ := docs[0]["epoch"].(int64)
	return fmt.Sprintf("epoch=%d\n%s", epoch, text)
}

// journalContent renders a $migrations collection as its logical content:
// entries sorted by migration name, timestamps excluded.
func journalContent(c *store.Collection) string {
	docs := c.Find()
	lines := make([]string, 0, len(docs))
	for _, d := range docs {
		name, _ := d["name"].(string)
		hash, _ := d["hash"].(string)
		commands, _ := d["commands"].(int64)
		applied, _ := d["applied"].(int64)
		done, _ := d["done"].(bool)
		watermark, _ := d["watermark"].(int64)
		lines = append(lines, fmt.Sprintf("%s %s %d %d %t %d", name, hash, commands, applied, done, watermark))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
