package eval

import (
	"fmt"

	"scooter/internal/store"
)

// Derivation is one pending per-document step of a migration: a document
// of Model that lacks Field gets Field = Derive(document). A nil Derive
// removes Field instead, and with an empty Field the whole document: it
// is a RemoveField or DeleteModel, which a window carries only when a
// later command of the same script adds the field or the model back, so
// that until the removal has run the old stored data never passes for
// the new. Derive is safe for concurrent use.
type Derivation struct {
	Model  string
	Field  string
	Derive func(doc store.Doc) (store.Value, error)
}

// Window is the ordered list of a migration's pending steps, in script
// order: one per AddField whose sweep has not finished, and one per
// RemoveField or DeleteModel that has not run and whose name a later
// command adds back. It is a value: the executor installs a
// shorter list when a step ends and never edits an installed one, so a
// reader that loaded a window sees one consistent set of pending fields.
type Window []Derivation

// Pending reports whether the window still derives or removes
// model.field.
func (w Window) Pending(model, field string) bool {
	for _, d := range w {
		if d.Model == model && d.Field == field {
			return true
		}
	}
	return false
}

// Removing reports whether the window still removes a field of model, or
// the model itself. While it does, stored data of the removed field or
// model cannot be told from data of the one the script adds back, so no
// write to the model can be made to land in the post-migration shape.
func (w Window) Removing(model string) bool {
	for _, d := range w {
		if d.Model == model && d.Derive == nil {
			return true
		}
	}
	return false
}

// Augment returns doc in its post-migration shape: it applies the
// window's steps for model in script order, deriving each pending field
// the document lacks from the document as augmented so far (so a later
// initialiser reads an earlier field's derived value) and dropping each
// removed field. A removed model yields a nil document: every stored
// document of it predates the removal. It also reports whether anything
// changed. doc may be a shared stored document: changes go into a copy,
// and doc itself is returned when nothing changes.
func (w Window) Augment(model string, doc store.Doc) (store.Doc, bool, error) {
	changed := false
	own := func() {
		if !changed {
			cp := make(store.Doc, len(doc)+1)
			for k, val := range doc {
				cp[k] = val
			}
			doc = cp
			changed = true
		}
	}
	for _, d := range w {
		if d.Model != model {
			continue
		}
		if d.Field == "" {
			return nil, true, nil
		}
		_, present := doc[d.Field]
		switch {
		case d.Derive == nil && present:
			own()
			delete(doc, d.Field)
		case d.Derive != nil && !present:
			v, err := d.Derive(doc)
			if err != nil {
				return nil, false, fmt.Errorf("migrating %s.%s: %w", model, d.Field, err)
			}
			own()
			doc[d.Field] = v
		}
	}
	return doc, changed, nil
}
