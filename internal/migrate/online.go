package migrate

import (
	"time"

	"scooter/internal/eval"
	"scooter/internal/store"
)

// An AddField sweep populates its field in batches through FindAfter and
// UpdateIfAbsent, with one durability wait per batch. Stop-the-world
// execution is one unbounded batch. Online execution (Options.Online)
// bounds the batches and follows each with a journal watermark
// checkpoint, Rate pacing and an OnBatch yield, so a crash resumes
// mid-command at the first unswept document and foreground traffic
// interleaves between batches.
//
// Convergence argument (the acceptance bar is byte-identical equality with
// the stop-the-world result, for every interleaving): the executor
// installs the post-migration schema and the window of every pending step
// together, before the first command runs. So every pending field of a
// document is derived from the document's shape at the flip, in script
// order, exactly once.
//   - A sweep writes a field via UpdateIfAbsent, which is a no-op when a
//     foreground write (or a resumed run's earlier sweep) already wrote it.
//   - A foreground write to a document derives every pending field it
//     lacks before the write lands, and persists them with it, so the
//     write always applies to the post-migration shape.
//   - A document inserted during the window carries every pending field
//     from birth, and monotonically increasing ids mean each sweep
//     reaches and skips it.
//   - "Lacks the field" means "predates the flip" only while no removal
//     of that name is pending. A script that removes a field (or model)
//     and adds it back puts the removal in the window too: reads drop the
//     old stored data, and writes to the model are refused (ErrMigrating
//     in the ORM) until the removal has run, so no write can land on a
//     shape the removal would then change.
// So no interleaving of batches, crashes, and foreground traffic can make
// a document's new fields differ from the stop-the-world values. A run
// that fails (an initialiser erring on some document) stops short of
// that state: see execute.

// sweep populates one AddField's field across its collection, starting
// after the watermark from. checkpoint reports each online batch's durable
// progress for journalling.
func sweep(db *store.DB, d eval.Derivation, from store.ID, opts Options, checkpoint func(watermark store.ID) error) error {
	batch := 0 // stop-the-world: one unbounded batch
	if opts.Online {
		batch = opts.BatchSize
		if batch <= 0 {
			batch = DefaultBatchSize
		}
	}
	coll := db.Collection(d.Model)
	// Pacing is elapsed-based, settled once per batch: per-document sleeps
	// round up to the timer granularity (~1ms) and would cap the effective
	// rate near 1000 docs/s no matter what -rate asks for.
	paceStart := time.Now()
	swept := 0
	watermark := from
	for {
		// The initialiser may probe other collections, so it is evaluated
		// with no collection lock held (WAL compaction takes every lock at
		// its cut); UpdateIfAbsent takes this one per document.
		docs := coll.FindAfter(watermark, batch)
		if len(docs) == 0 {
			return nil
		}
		populated, skipped := 0, 0
		// The batch's updates are logged one by one but awaited together,
		// so a batch costs about one fsync instead of one per document.
		waits := make([]store.WaitFunc, 0, len(docs))
		for _, doc := range docs {
			watermark = doc.ID()
			if _, present := doc[d.Field]; present {
				// Already carries the field: inserted post-flip, migrated
				// by a foreground write, or swept before a crash.
				skipped++
				continue
			}
			v, err := d.Derive(doc)
			if err != nil {
				return err
			}
			wrote, wait := coll.UpdateIfAbsent(doc.ID(), d.Field, v)
			if wrote {
				populated++
				waits = append(waits, wait)
			} else {
				skipped++
			}
		}
		if err := db.Await(waits...); err != nil {
			return err
		}
		if opts.Online {
			swept += len(docs)
			if opts.Rate > 0 {
				target := time.Duration(swept) * time.Second / time.Duration(opts.Rate)
				if sleep := target - time.Since(paceStart); sleep > 0 {
					time.Sleep(sleep)
				}
			}
			// The watermark checkpoint is logged after the batch's own
			// updates, and only once they are durable, so a recovered
			// watermark never claims unswept documents.
			if err := checkpoint(watermark); err != nil {
				return err
			}
		}
		remaining := coll.CountAfter(watermark)
		opts.Backfill.RecordBatch(populated, skipped, int64(watermark), remaining)
		if opts.Online && opts.OnBatch != nil {
			if err := opts.OnBatch(d.Model, d.Field, watermark, remaining); err != nil {
				return err
			}
		}
	}
}
