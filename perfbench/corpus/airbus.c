/*
 * RTC_Si string-manipulation library.
 *
 * Synthetic stand-in for the proprietary EADS Airbus string library the
 * paper evaluates (Table 5): eleven procedures, ~400 source lines, written
 * in the style the paper describes — destructive updates through multi-level
 * pointers, pointer arithmetic over fixed-size buffers, and one function
 * (RTC_Si_SkipBalanced) whose safety depends on functional correctness of
 * its callers. RTC_Si_SkipLine is the paper's Fig. 3 verbatim.
 *
 * All procedures are memory-safe under their contracts; the messages CSSV
 * reports on this suite are false alarms (paper: six, concentrated in the
 * balanced-parentheses scanner and in stores of characters whose
 * non-zero-ness the analysis cannot infer).
 */

#define RTC_LINE_MAX 132

/* ------------------------------------------------------------------ */
/* 1. Insert NbLine newline characters at *PtrEndText (paper Fig. 3).  */

void RTC_Si_SkipLine(int NbLine, char **PtrEndText)
    requires (is_within_bounds(*PtrEndText) &&
              alloc(*PtrEndText) > NbLine && NbLine >= 0)
    modifies (*PtrEndText), (is_nullt(*PtrEndText)), (strlen(*PtrEndText))
    ensures (is_nullt(*PtrEndText) && strlen(*PtrEndText) == 0 &&
             *PtrEndText == pre(*PtrEndText) + NbLine)
{
    int indice;
    char *PtrEndLoc;

    indice = 0;
begin_loop:
    if (indice >= NbLine) goto end_loop;
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\n';
    *PtrEndText = PtrEndLoc + 1;
    indice = indice + 1;
    goto begin_loop;
end_loop:
    PtrEndLoc = *PtrEndText;
    *PtrEndLoc = '\0';
}

/* ------------------------------------------------------------------ */
/* 2. Fill the first Count bytes with the (non-null) pad character.    */

void RTC_Si_FillChar(char *Buffer, int Count, int Mode)
    requires (alloc(Buffer) > Count && Count >= 0 && Mode >= 0)
    modifies (Buffer)
    ensures (is_nullt(Buffer) && strlen(Buffer) == Count)
{
    int i;
    int pad;

    /* '.' for mode 0, then denser glyphs; never zero, but opaque to a
       linear analysis. */
    pad = '.' + Mode * Mode;
    Buffer[Count] = '\0';
    i = 0;
    while (i < Count) {
        Buffer[i] = pad;
        i = i + 1;
    }
}

/* ------------------------------------------------------------------ */
/* 3. Classic character-at-a-time string copy.                         */

void RTC_Si_CopyString(char *Dest, char *Source)
    requires (is_nullt(Source) && alloc(Dest) > strlen(Source))
    modifies (Dest)
    ensures (is_nullt(Dest) && strlen(Dest) == pre(strlen(Source)))
{
    char c;

    c = *Source;
    while (c != '\0') {
        *Dest = c;
        Dest = Dest + 1;
        Source = Source + 1;
        c = *Source;
    }
    *Dest = '\0';
}

/* ------------------------------------------------------------------ */
/* 4. Append one character at the text end and re-terminate.           */

void RTC_Si_AppendChar(char **PtrEnd, int Car)
    requires (is_nullt(*PtrEnd) && strlen(*PtrEnd) == 0 &&
              alloc(*PtrEnd) >= 2 && Car >= 1)
    modifies (*PtrEnd), (is_nullt(*PtrEnd)), (strlen(*PtrEnd))
    ensures (is_nullt(*PtrEnd) && *PtrEnd == pre(*PtrEnd) + 1)
{
    char *PtrLoc;

    PtrLoc = *PtrEnd;
    *PtrLoc = Car;
    PtrLoc = PtrLoc + 1;
    *PtrLoc = '\0';
    *PtrEnd = PtrLoc;
}

/* ------------------------------------------------------------------ */
/* 5. Write the separator line "#---...#" into a fresh buffer.         */
/*    The separator character is computed; the analysis cannot see     */
/*    that it is never the null character (paper: source of false      */
/*    alarms: "CSSV fails to infer that this character is non zero").  */

void RTC_Si_InsertSeparator(char *Buffer, int Width, int Level)
    requires (alloc(Buffer) > Width && Width >= 2)
    modifies (Buffer)
    ensures (is_nullt(Buffer) && strlen(Buffer) == Width)
{
    int i;
    int car;

    /* '-' for level 0, '=' for level 1, ... never zero, but the product
       makes the value opaque to linear analysis. */
    car = '-' + Level * Level;
    Buffer[Width] = '\0';
    Buffer[0] = '#';
    i = 1;
    while (i < Width - 1) {
        Buffer[i] = car;
        i = i + 1;
    }
    Buffer[i] = '#';
}

/* ------------------------------------------------------------------ */
/* 6. Pad a line with blanks up to Width and terminate it.             */

void RTC_Si_PadBuffer(char *Line, int Width)
    requires (is_nullt(Line) && alloc(Line) > Width &&
              Width >= 0 && strlen(Line) <= Width)
    modifies (Line)
    ensures (is_nullt(Line))
{
    int i;

    i = 0;
    while (Line[i] != '\0') {
        i = i + 1;
    }
    while (i < Width) {
        Line[i] = ' ';
        i = i + 1;
    }
    Line[i] = '\0';
}

/* ------------------------------------------------------------------ */
/* 7. Truncate a string at position Pos when it is longer.             */

void RTC_Si_TruncateAt(char *Text, int Pos)
    requires (is_nullt(Text) && Pos >= 0 && Pos <= strlen(Text))
    modifies (is_nullt(Text)), (strlen(Text))
    ensures (is_nullt(Text) && strlen(Text) <= Pos)
{
    Text[Pos] = '\0';
}

/* ------------------------------------------------------------------ */
/* 8. Count occurrences of a character in a string.                    */

int RTC_Si_CountChar(char *Text, int Car)
    requires (is_nullt(Text))
    ensures (return_value >= 0)
{
    int count;
    char c;

    count = 0;
    c = *Text;
    while (c != '\0') {
        if (c == Car) {
            count = count + 1;
        }
        Text = Text + 1;
        c = *Text;
    }
    return count;
}

/* ------------------------------------------------------------------ */
/* 9. Skip a balanced parenthesis group. The callers establish that    */
/*    the argument starts a balanced group; safety depends on that     */
/*    functional property, which the contract language cannot state    */
/*    (paper: "in some cases it is hard to separate safety from        */
/*    correctness" — the messages here are false alarms).              */

char *RTC_Si_SkipBalanced(char *Text)
    requires (is_nullt(Text) && strlen(Text) >= 1)
    ensures (is_within_bounds(return_value))
{
    int depth;
    char c;

    c = *Text;
    if (c != '(') {
        return Text;
    }
    depth = 0;
    do {
        c = *Text;
        if (c == '(') {
            depth = depth + 1;
        } else {
            if (c == ')') {
                depth = depth - 1;
            }
        }
        Text = Text + 1;
    } while (depth > 0);
    return Text;
}

/* ------------------------------------------------------------------ */
/* 10. Copy at most Max-1 characters of a line, stopping at newline.   */

void RTC_Si_CopyLine(char *Dest, char *Source, int Max)
    requires (is_nullt(Source) && alloc(Dest) >= Max && Max >= 1)
    modifies (Dest)
    ensures (is_nullt(Dest))
{
    int i;
    char c;

    i = 0;
    while (i < Max - 1) {
        c = Source[i];
        if (c == '\0') {
            goto done;
        }
        if (c == '\n') {
            goto done;
        }
        Dest[i] = c;
        i = i + 1;
    }
done:
    Dest[i] = '\0';
}

/* ------------------------------------------------------------------ */
/* 11. Append a text at the running end pointer, advancing it.         */

void RTC_Si_WriteText(char **PtrEndText, char *Text)
    requires (is_within_bounds(*PtrEndText) && is_nullt(Text) &&
              alloc(*PtrEndText) > strlen(Text))
    modifies (*PtrEndText), (is_nullt(*PtrEndText)), (strlen(*PtrEndText))
    ensures (is_nullt(*PtrEndText) &&
             *PtrEndText == pre(*PtrEndText) + pre(strlen(Text)))
{
    char *end;
    char c;

    end = *PtrEndText;
    c = *Text;
    while (c != '\0') {
        *end = c;
        end = end + 1;
        Text = Text + 1;
        c = *Text;
    }
    *end = '\0';
    *PtrEndText = end;
}
