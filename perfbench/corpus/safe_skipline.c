/* The paper's SkipLine (Fig. 3) with the Fig. 4 contract and a caller
   that respects it: verified with no messages. */

#define SIZE 128

void SkipLine(int NbLine, char **PtrEndText)
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

void main() {
    char buf[SIZE];
    char *r;
    char *s;

    r = buf;
    SkipLine(1, &r);
    s = buf;
    SkipLine(2, &s);
}
