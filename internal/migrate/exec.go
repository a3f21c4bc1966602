package migrate

import (
	"fmt"
	"time"

	"scooter/internal/ast"
	"scooter/internal/equiv"
	"scooter/internal/eval"
	"scooter/internal/schema"
	"scooter/internal/store"
)

// Install makes a schema and a window of pending steps live together, in
// one swap: the workspace binds them to its connection, so foreground
// operations judge every document against after and apply the window's
// steps on access. The executor installs the post-migration schema with
// the whole window before the first command runs, and the shorter window
// each time a step's command ends. A nil Install is a no-op.
type Install func(after *schema.Schema, window eval.Window) error

// execute applies a verified plan to the database, starting at command
// index start; earlier commands only advance the schema-so-far (their
// data effects are already present — the crash-recovery resume path), and
// watermark is how far the backfill of command start had got. Every now()
// in an initialiser evaluates to nowUnix for the whole run: Apply passes
// the journal entry's AppliedAt, which survives a crash, so a resumed run
// converges byte-identically to an uninterrupted one.
//
// It is the one executor behind Apply, VerifyAndExecute and the online
// equivalence check. Stop-the-world and online execution differ only in
// how an AddField sweeps (see sweep). Execution never rolls back (paper
// §3.2): verification of the whole script happened before any data was
// touched. Commands are idempotent against their own partial effects, so
// resuming at the last journalled command is safe even if it half-ran.
//
// progress, when set, runs after each durable unit of work: a finished
// command (applied = its index + 1, watermark = store.Nil) or, online, a
// backfill batch inside command applied (watermark = the last swept id).
func execute(plan *Plan, db *store.DB, start int, watermark store.ID, nowUnix int64, opts Options, install Install, progress func(applied int, watermark store.ID) error) error {
	if install == nil {
		install = func(*schema.Schema, eval.Window) error { return nil }
	}
	if progress == nil {
		progress = func(int, store.ID) error { return nil }
	}
	// The window holds one derivation per AddField still to run. Each
	// evaluates its initialiser against a snapshot of the schema in effect
	// before its own command, so a later initialiser can read an earlier
	// field. A RemoveField or DeleteModel still to run joins the window
	// when a later command adds the same field or model back: the
	// post-migration schema declares the new one from the flip, and until
	// the removal has run the old stored data must not pass for it.
	// owner[k] is the command whose step window[k] is.
	cmds := plan.Script.Commands
	cur := plan.Before.Snapshot()
	defs := equiv.New()
	var window eval.Window
	var owner []int
	for i, cmd := range cmds {
		if i >= start {
			switch c := cmd.(type) {
			case *ast.AddField:
				window = append(window, derivation(cur.Snapshot(), db, c, nowUnix))
				owner = append(owner, i)
			case *ast.RemoveField:
				if readded(cmds[i+1:], c.ModelName, c.FieldName) {
					window = append(window, eval.Derivation{Model: c.ModelName, Field: c.FieldName})
					owner = append(owner, i)
				}
			case *ast.DeleteModel:
				if readded(cmds[i+1:], c.ModelName, "") {
					window = append(window, eval.Derivation{Model: c.ModelName})
					owner = append(owner, i)
				}
			}
		}
		if err := applyCommand(cur, defs, cmd); err != nil {
			return fmt.Errorf("recording command %d (%s): %w", i+1, cmd.Name(), err)
		}
	}
	// A failed run leaves the post-migration schema installed: going back
	// to the old one would weaken every policy the script strengthened,
	// under data written since the flip. The window keeps only its
	// removals, so stale values stay hidden; fields whose sweeps did not
	// finish read as absent until a resumed run derives them.
	fail := func(err error) error {
		var removals eval.Window
		for _, d := range window {
			if d.Derive == nil {
				removals = append(removals, d)
			}
		}
		_ = install(plan.After, removals) // err is the failure to report
		return err
	}
	if err := install(plan.After, window); err != nil {
		return fail(err)
	}
	for i := start; i < len(cmds); i++ {
		cmd := cmds[i]
		var err error
		if _, ok := cmd.(*ast.AddField); ok {
			from := store.Nil
			if i == start {
				from = watermark
			}
			err = sweep(db, window[0], from, opts, func(w store.ID) error { return progress(i, w) })
		} else {
			executeCommand(db, cmd)
		}
		if err == nil && len(owner) > 0 && owner[0] == i {
			window, owner = window[1:], owner[1:]
			err = install(plan.After, window)
		}
		if err != nil {
			return fail(fmt.Errorf("executing command %d (%s): %w", i+1, cmd.Name(), err))
		}
		if err := progress(i+1, store.Nil); err != nil {
			return fail(fmt.Errorf("journalling command %d (%s): %w", i+1, cmd.Name(), err))
		}
	}
	return nil
}

// readded reports whether one of cmds adds model.field, or with an empty
// field creates model.
func readded(cmds []ast.Command, model, field string) bool {
	for _, cmd := range cmds {
		switch c := cmd.(type) {
		case *ast.AddField:
			if field != "" && c.ModelName == model && c.Field.Name == field {
				return true
			}
		case *ast.CreateModel:
			if field == "" && c.Model.Name == model {
				return true
			}
		}
	}
	return false
}

// derivation builds an AddField's per-document transform. snap is the
// schema in effect before the command; the executor advances its own
// schema for later commands while in-flight readers may still hold the
// derivation through an installed window.
func derivation(snap *schema.Schema, db *store.DB, c *ast.AddField, nowUnix int64) eval.Derivation {
	ev := eval.New(snap, db)
	ev.FixedNow = nowUnix
	return eval.Derivation{
		Model: c.ModelName,
		Field: c.Field.Name,
		Derive: func(doc store.Doc) (store.Value, error) {
			v, err := ev.EvalInit(c.ModelName, doc, c.Init)
			if err != nil {
				return nil, err
			}
			return normaliseForField(c.Field.Type, v), nil
		},
	}
}

// executeCommand applies the data effect of a command other than
// AddField, whose sweep the executor runs itself.
func executeCommand(db *store.DB, cmd ast.Command) {
	switch c := cmd.(type) {
	case *ast.CreateModel:
		db.Collection(c.Model.Name) // materialise the collection
	case *ast.DeleteModel:
		db.DropCollection(c.ModelName)
	case *ast.RemoveField:
		db.Collection(c.ModelName).RemoveField(c.FieldName)
	}
	// Policy and principal commands do not touch data.
}

// normaliseForField adapts an initialiser result to the declared field
// type: a nil set becomes the empty set, and Option fields wrap plain
// values produced by unify-friendly initialisers.
func normaliseForField(t ast.Type, v store.Value) store.Value {
	switch t.Kind {
	case ast.TSet:
		if v == nil {
			return []store.Value{}
		}
	case ast.TOption:
		if _, ok := v.(store.Optional); !ok {
			return store.Some(v)
		}
	}
	return v
}

// VerifyAndExecute runs the full pipeline: verify the script against the
// schema, then execute it against the database, stop-the-world unless
// opts.Online is set. install receives the post-migration schema and the
// window before the first command runs (nil when nobody serves traffic
// from db). It returns the post-migration schema (the new authoritative
// specification).
func VerifyAndExecute(before *schema.Schema, script *ast.MigrationScript, db *store.DB, opts Options, install Install) (*schema.Schema, error) {
	plan, err := Verify(before, script, opts)
	if err != nil {
		return nil, err
	}
	now := time.Now
	if opts.Clock != nil {
		now = opts.Clock
	}
	if err := execute(plan, db, 0, store.Nil, now().Unix(), opts, install, nil); err != nil {
		return nil, err
	}
	return plan.After, nil
}
